package serving

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
)

var fuzzShard struct {
	once sync.Once
	srv  *ShardServer
	err  error
}

// fuzzShardServer is one small shard server shared by every fuzz input.
func fuzzShardServer(t testing.TB) *ShardServer {
	fuzzShard.once.Do(func() {
		cfg := smallConfig(1)
		cfg.Population.CatalogSize = 300
		cfg.Population.ActivityGrid = 32
		b, info, err := NewReplicaBackend(cfg)
		if err != nil {
			fuzzShard.err = err
			return
		}
		fuzzShard.srv, fuzzShard.err = NewShardServer(b, info)
	})
	if fuzzShard.err != nil {
		t.Fatal(fuzzShard.err)
	}
	return fuzzShard.srv
}

// shareRoundingSlack is how far above 1 a share may land by rounding alone.
// A share is an expectation over the activity grid, whose weights sum to 1
// only up to rounding: the empty conjunction (no interests — a geo-only
// spec's union) evaluates to the weights' sum, 1 + 2.2e-16 in this world.
const shareRoundingSlack = 1e-12

// FuzzShardShareRequest drives the shard RPC decoder with arbitrary binary
// bodies on the reachshares endpoint. Whatever the body, the shard must not
// panic or answer 5xx (a bad body is the caller's fault: 4xx), and every 200
// must carry exactly the demo and union shares, each finite and in [0, 1]
// up to the grid's rounding above 1 (shareRoundingSlack). Separately, a
// request generated from the input must come back from encode and
// decodeShareBody unchanged.
func FuzzShardShareRequest(f *testing.F) {
	for _, req := range []shardShareRequest{
		{},
		{Filter: &population.DemoFilter{Countries: []string{"US"}, AgeMin: 18, AgeMax: 30}, Clauses: [][]interest.ID{{1, 2}, {3}}},
		{Filter: &population.DemoFilter{Genders: []population.Gender{population.GenderMale}, AgeMin: 65, AgeMax: 13}},
		{Clauses: [][]interest.ID{{}}},
		{Clauses: [][]interest.ID{{1}, {1}, {299}}},
		{Clauses: [][]interest.ID{{1, 2, 3}}},
		{Filter: &population.DemoFilter{Countries: []string{"ZZ", ""}, Genders: []population.Gender{7, 99}, AgeMin: -5}},
		{Clauses: [][]interest.ID{{0}}},
	} {
		f.Add(req.encode())
	}
	// Raw garbage: empty, one byte, an old build's JSON body and a clause
	// count far beyond the body.
	for _, raw := range []string{"", "\x00", `{"clauses": [[1]]}`, "\x00\xff\xff\xff\xff\x0f"} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		fuzzShardServer(t).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, shardPathReach, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%q: HTTP %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK {
			var demo, union float64
			if err := decodeShares(rec.Body.Bytes(), &demo, &union); err != nil {
				t.Fatalf("%q: 200 body %x: %v", body, rec.Body, err)
			}
			for _, s := range []float64{demo, union} {
				if math.IsNaN(s) || s < 0 || s > 1+shareRoundingSlack {
					t.Fatalf("%q: share %v out of [0, 1]", body, s)
				}
			}
		}

		want := generatedShareRequest(body)
		got, err := decodeShareBody(want.encode())
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip of %+v: got %+v, err %v", want, got, err)
		}
	})
}

// generatedShareRequest draws a request from a stream seeded by data:
// any-length country and gender lists, ages of either sign, IDs up to
// MaxUint32, and an empty clause list nil, as decodeShareBody returns it (an
// empty clause inside the list stays an empty non-nil slice).
func generatedShareRequest(data []byte) shardShareRequest {
	h := fnv.New64a()
	h.Write(data)
	r := rng.New(h.Sum64())
	ids := func() []interest.ID {
		out := make([]interest.ID, r.Intn(4))
		for i := range out {
			out[i] = interest.ID(r.Uint64())
		}
		return out
	}
	var req shardShareRequest
	if r.Intn(2) == 1 {
		var f population.DemoFilter
		for range r.Intn(3) {
			f.Countries = append(f.Countries, strconv.Itoa(r.Intn(1000)))
		}
		for range r.Intn(3) {
			f.Genders = append(f.Genders, population.Gender(r.Uint64()))
		}
		f.AgeMin, f.AgeMax = int(r.Uint64()), int(r.Uint64())
		req.Filter = &f
	}
	for range r.Intn(4) {
		req.Clauses = append(req.Clauses, ids())
	}
	return req
}

// fuzzConn is the shard's end of an upgraded connection for FuzzShardFrame:
// reads come from the input, writes are kept, and Close is recorded. The
// frame loop calls nothing else of net.Conn.
type fuzzConn struct {
	net.Conn
	in     *bytes.Reader
	out    bytes.Buffer
	closed bool
}

func (c *fuzzConn) Read(b []byte) (int, error)        { return c.in.Read(b) }
func (c *fuzzConn) Write(b []byte) (int, error)       { return c.out.Write(b) }
func (c *fuzzConn) Close() error                      { c.closed = true; return nil }
func (c *fuzzConn) SetReadDeadline(_ time.Time) error { return nil }

// wellFormedFrames counts the request frames at the start of data whose
// header the shard must accept: a budget in [1, MaxInt64/1ms] ms and a body
// length of at most maxShareBody that the rest of data holds.
func wellFormedFrames(data []byte) int {
	for n := 0; ; n++ {
		ms, k := binary.Uvarint(data)
		if k <= 0 || ms == 0 || ms > math.MaxInt64/uint64(time.Millisecond) {
			return n
		}
		data = data[k:]
		size, k := binary.Uvarint(data)
		if k <= 0 || size > maxShareBody || size > uint64(len(data)-k) {
			return n
		}
		data = data[k+int(size):]
	}
}

// FuzzShardFrame feeds arbitrary bytes to a shard's frame loop, as if they
// followed an upgrade. The shard must not panic; it answers exactly the
// well-formed frames before the first bad or truncated header, each with a
// well-formed answer frame (200 with two shares in [0, 1] up to
// shareRoundingSlack, or a 400 or 504 with a JSON error body), and then
// closes the connection. Separately, request and answer frames generated
// from the input must come back from their readers unchanged.
func FuzzShardFrame(f *testing.F) {
	frame := func(ms int64, req shardShareRequest) []byte { return appendRequestFrame(nil, ms, req.encode()) }
	valid := frame(60000, shardShareRequest{Filter: &population.DemoFilter{Countries: []string{"US"}}, Clauses: [][]interest.ID{{1, 2}, {3}}})
	for _, seed := range [][]byte{
		valid,
		append(append([]byte{}, valid...), valid...),
		frame(1, shardShareRequest{Clauses: [][]interest.ID{{299}}}),
		frame(60000, shardShareRequest{Clauses: [][]interest.ID{{0}}}),
		frame(60000, shardShareRequest{}),
		append(frame(0, shardShareRequest{}), valid...),
		append(append(append([]byte{}, valid...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), valid...),
		appendRequestFrame(nil, 1000, make([]byte, 3))[:4],
		binary.AppendUvarint(binary.AppendUvarint(nil, 1000), maxShareBody+1),
		{},
		[]byte("POST /shard/v1/reachshares HTTP/1.1\r\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &fuzzConn{in: bytes.NewReader(data)}
		fuzzShardServer(t).serveFrames(context.Background(), conn, bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn)), 0)
		if !conn.closed {
			t.Fatalf("%q: the frame loop ended without closing the connection", data)
		}
		answers := bufio.NewReader(&conn.out)
		want := wellFormedFrames(data)
		for k := 0; k < want; k++ {
			payload, status, retryAfter, err := readAnswerFrame(answers)
			if err != nil || retryAfter != 0 {
				t.Fatalf("%q: answer %d of %d: retry-after %v, %v", data, k, want, retryAfter, err)
			}
			switch status {
			case http.StatusOK:
				var demo, union float64
				if err := decodeShares(payload, &demo, &union); err != nil {
					t.Fatalf("%q: answer %d: %v", data, k, err)
				}
				for _, v := range []float64{demo, union} {
					if math.IsNaN(v) || v < 0 || v > 1+shareRoundingSlack {
						t.Fatalf("%q: answer %d: share %v out of [0, 1]", data, k, v)
					}
				}
			case http.StatusBadRequest, http.StatusGatewayTimeout:
				var eb shardErrorBody
				if err := json.Unmarshal(payload, &eb); err != nil || eb.Error.Message == "" {
					t.Fatalf("%q: answer %d: HTTP %d body %q is not an error body", data, k, status, payload)
				}
			default:
				t.Fatalf("%q: answer %d: HTTP %d", data, k, status)
			}
		}
		if rest, _ := io.ReadAll(answers); len(rest) > 0 {
			t.Fatalf("%q: %d bytes after the %d answers to its well-formed frames", data, len(rest), want)
		}

		// Round trips: two request frames back to back, then an answer frame.
		h := fnv.New64a()
		h.Write(data)
		r := rng.New(h.Sum64())
		req := generatedShareRequest(data)
		ms := 1 + int64(r.Uint64()%uint64(math.MaxInt64/int64(time.Millisecond)))
		one := frame(ms, req)
		frames := bufio.NewReader(bytes.NewReader(append(append([]byte{}, one...), one...)))
		for i := 0; i < 2; i++ {
			before := time.Now()
			deadline, body, err := readRequestFrame(frames, nil)
			after := time.Now()
			budget := time.Duration(ms) * time.Millisecond
			if err != nil || deadline.Before(before.Add(budget)) || deadline.After(after.Add(budget)) {
				t.Fatalf("request frame %d (budget %dms): deadline %v read between %v and %v, %v", i, ms, deadline, before, after, err)
			}
			if got, err := decodeShareBody(body); err != nil || !reflect.DeepEqual(got, req) {
				t.Fatalf("request frame %d: %+v, err %v, want %+v", i, got, err, req)
			}
		}
		if _, _, err := readRequestFrame(frames, nil); err != io.EOF {
			t.Fatalf("after two request frames: %v, want EOF", err)
		}
		status, secs := 200+r.Intn(400), r.Uint64()%(math.MaxInt64/uint64(time.Second))
		payload, gotStatus, gotWait, err := readAnswerFrame(bufio.NewReader(bytes.NewReader(appendAnswerFrame(nil, status, secs, one))))
		if err != nil || gotStatus != status || gotWait != time.Duration(secs)*time.Second || !bytes.Equal(payload, one) {
			t.Fatalf("answer frame (%d, %ds, %d bytes) read as (%d, %v, %d bytes), %v", status, secs, len(one), gotStatus, gotWait, len(payload), err)
		}
	})
}

// FuzzDeadlineHeader sends a share RPC from a live caller with an arbitrary
// X-Deadline-Ms value. The shard must parse the header or reject it: 200 or
// 400, never a 5xx. The one allowed 504 is a budget under a second, which
// can genuinely expire before compute on a loaded machine; a huge budget
// must not wrap into an expired one.
func FuzzDeadlineHeader(f *testing.F) {
	for _, seed := range []string{"60000", "1000", "0", "-5", "abc", "", "+7000", "10000000000000", "9223372036854775807", "9223372036854"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, header string) {
		srv := fuzzShardServer(t)
		body := shardShareRequest{Clauses: [][]interest.ID{{1}}}.encode()
		req := httptest.NewRequest(http.MethodPost, shardPathReach, bytes.NewReader(body))
		req.Header.Set(DeadlineHeader, header)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest:
		case http.StatusGatewayTimeout:
			if ms, err := strconv.ParseInt(header, 10, 64); err != nil || ms >= 1000 {
				t.Fatalf("%s=%q: HTTP 504 for a live caller: %s", DeadlineHeader, header, rec.Body)
			}
		default:
			t.Fatalf("%s=%q: HTTP %d: %s", DeadlineHeader, header, rec.Code, rec.Body)
		}
	})
}

// FuzzParseRetryAfter checks ParseRetryAfter against big-integer arithmetic:
// the result is never negative, it is secs·1s whenever that product fits in
// a time.Duration, and 0 ("no advice") for anything else.
func FuzzParseRetryAfter(f *testing.F) {
	for _, seed := range []string{"3", "", "-1", "abc", " 7 ", "20000000000", "9223372036", "9223372037", "+4"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		got := ParseRetryAfter(h)
		if got < 0 {
			t.Fatalf("ParseRetryAfter(%q) = %v < 0", h, got)
		}
		var want time.Duration
		if secs, err := strconv.ParseInt(strings.TrimSpace(h), 10, 64); err == nil && secs >= 0 {
			if d := new(big.Int).Mul(big.NewInt(secs), big.NewInt(int64(time.Second))); d.IsInt64() {
				want = time.Duration(d.Int64())
			}
		}
		if got != want {
			t.Fatalf("ParseRetryAfter(%q) = %v, want %v", h, got, want)
		}
	})
}
