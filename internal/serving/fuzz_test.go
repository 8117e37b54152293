package serving

import (
	"encoding/json"
	"math"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
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

// FuzzShardShareRequest drives the shard RPC decoder with arbitrary bodies on
// every share endpoint, the fused reach-shares one included. Whatever the
// body, the shard must not panic or answer 5xx (a bad body is the caller's
// fault: 4xx), and every 200 must carry finite shares in [0, 1], up to the
// grid's rounding above 1 (shareRoundingSlack).
func FuzzShardShareRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"filter": {"Countries": ["US"], "AgeMin": 18, "AgeMax": 30}, "clauses": [[1, 2], [3]]}`,
		`{"filter": {"Genders": [1], "AgeMin": 65, "AgeMax": 13}}`,
		`{"clauses": [[]]}`,
		`{"clauses": [[1], [1], [299]]}`,
		`{"ids": [1, 2, 3]}`,
		`{"ids": []}`,
		`{"filter": {"Countries": ["ZZ", ""], "Genders": [-7, 99], "AgeMin": -5}}`,
		`{"clauses": [[0]]}`,
		`{"bogus": 1}`,
		`{`,
		``,
	} {
		f.Add(seed)
	}
	paths := []string{shardPathDemo, shardPathUnion, shardPathReach, shardPathConj}
	f.Fuzz(func(t *testing.T, body string) {
		srv := fuzzShardServer(t)
		for _, path := range paths {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s %q: HTTP %d: %s", path, body, rec.Code, rec.Body)
			}
			if rec.Code != http.StatusOK {
				continue
			}
			var out struct {
				Share *float64 `json:"share"`
				Demo  *float64 `json:"demo"`
				Union *float64 `json:"union"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("%s %q: undecodable 200 body %s: %v", path, body, rec.Body, err)
			}
			shares := []*float64{out.Share}
			if path == shardPathReach {
				shares = []*float64{out.Demo, out.Union}
			}
			for _, s := range shares {
				if s == nil || math.IsNaN(*s) || *s < 0 || *s > 1+shareRoundingSlack {
					t.Fatalf("%s %q: share out of [0, 1] in %s", path, body, rec.Body)
				}
			}
		}
	})
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
		req := httptest.NewRequest(http.MethodPost, shardPathUnion, strings.NewReader(`{"clauses": [[1]]}`))
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
