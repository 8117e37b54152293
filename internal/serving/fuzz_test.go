package serving

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/big"
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
		b, info, err := NewShardBackend(cfg, 0, 2)
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
// bodies on every share endpoint, the fused reach-shares one included.
// Whatever the body, the shard must not panic or answer 5xx (a bad body is
// the caller's fault: 4xx), and every 200 must carry exactly the endpoint's
// shares, each finite and in [0, 1] up to the grid's rounding above 1
// (shareRoundingSlack). Separately, a request generated from the input must
// come back from encode and decodeShareBody unchanged.
func FuzzShardShareRequest(f *testing.F) {
	for _, req := range []shardShareRequest{
		{},
		{Filter: &population.DemoFilter{Countries: []string{"US"}, AgeMin: 18, AgeMax: 30}, Clauses: [][]interest.ID{{1, 2}, {3}}},
		{Filter: &population.DemoFilter{Genders: []population.Gender{population.GenderMale}, AgeMin: 65, AgeMax: 13}},
		{Clauses: [][]interest.ID{{}}},
		{Clauses: [][]interest.ID{{1}, {1}, {299}}},
		{IDs: []interest.ID{1, 2, 3}},
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
	paths := map[string]int{shardPathDemo: 1, shardPathUnion: 1, shardPathReach: 2, shardPathConj: 1}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := fuzzShardServer(t)
		for path, n := range paths {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s %q: HTTP %d: %s", path, body, rec.Code, rec.Body)
			}
			if rec.Code != http.StatusOK {
				continue
			}
			shares := make([]float64, n)
			ptrs := make([]*float64, n)
			for i := range shares {
				ptrs[i] = &shares[i]
			}
			if err := decodeShares(rec.Body.Bytes(), ptrs...); err != nil {
				t.Fatalf("%s %q: 200 body %x: %v", path, body, rec.Body, err)
			}
			for _, s := range shares {
				if math.IsNaN(s) || s < 0 || s > 1+shareRoundingSlack {
					t.Fatalf("%s %q: share %v out of [0, 1]", path, body, s)
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
// MaxUint32, and empty lists nil, as decodeShareBody returns them (an empty
// clause inside a list stays an empty non-nil slice).
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
	if list := ids(); len(list) > 0 {
		req.IDs = list
	}
	return req
}

// FuzzParseShardTopology checks the -proxy topology parser: an accepted spec
// has one shard per comma-separated field and one replica per |-separated
// URL, every URL non-empty and already trimmed.
func FuzzParseShardTopology(f *testing.F) {
	for _, seed := range []string{"u0a|u0b, u1 ,u2", "http://127.0.0.1:9001", "", ",", "a,,b", "a|", " | ", "a|b|c,d"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		shards, err := ParseShardTopology(spec)
		if err != nil {
			return
		}
		if want := strings.Count(spec, ",") + 1; len(shards) != want {
			t.Fatalf("%q: %d shards, want %d", spec, len(shards), want)
		}
		for i, field := range strings.Split(spec, ",") {
			if want := strings.Count(field, "|") + 1; len(shards[i]) != want {
				t.Fatalf("%q: shard %d has %d replicas, want %d", spec, i, len(shards[i]), want)
			}
			for _, u := range shards[i] {
				if u == "" || u != strings.TrimSpace(u) {
					t.Fatalf("%q: shard %d replica URL %q is empty or untrimmed", spec, i, u)
				}
			}
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
		req := httptest.NewRequest(http.MethodPost, shardPathUnion, bytes.NewReader(body))
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
