package serving

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
)

// BenchmarkShardReachShares measures a shard's side of one reach estimate:
// ShardServer.ServeHTTP answering a reachshares body for the paper's
// 18-interest conjunction in one country. A warm-up request fills the
// audience cache, so the loop is the RPC's own work — body read and decode,
// catalog check and the binary answer. CI gates its allocs/op (bench-smoke).
func BenchmarkShardReachShares(b *testing.B) {
	backend, info, err := NewShardBackend(smallConfig(1), 0, 2)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewShardServer(backend, info)
	if err != nil {
		b.Fatal(err)
	}
	clauses := make([][]interest.ID, 18)
	for i := range clauses {
		clauses[i] = []interest.ID{interest.ID(i + 1)}
	}
	body := shardShareRequest{Filter: &population.DemoFilter{Countries: []string{"ES"}}, Clauses: clauses}.encode()
	serve := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, shardPathReach, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
	}
	serve()
	for b.Loop() {
		serve()
	}
}
