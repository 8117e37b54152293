package serving

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
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
