package serving

import (
	"bytes"
	"context"
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

// BenchmarkProxyReachHop measures the whole proxy-to-shard hop of one warm
// reach estimate: ProxyBackend.ReachShares for the paper's 18-interest
// conjunction in one country, sent to one real ShardServer on an httptest
// server. The first warm-up estimate upgrades the connection to reach
// frames and the second sizes the frame buffers at both ends, so the loop
// is a frame each way on a pooled connection. CI gates its allocs/op
// (bench-smoke).
func BenchmarkProxyReachHop(b *testing.B) {
	cfg := smallConfig(1)
	backend, info, err := NewShardBackend(cfg, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewShardServer(backend, info)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	proxy, err := NewProxyBackend(cfg, ProxyConfig{URLs: []string{ts.URL}})
	if err != nil {
		b.Fatal(err)
	}
	clauses := make([][]interest.ID, 18)
	for i := range clauses {
		clauses[i] = []interest.ID{interest.ID(i + 1)}
	}
	f := population.DemoFilter{Countries: []string{"ES"}}
	ctx := context.Background()
	estimate := func() {
		if _, _, err := proxy.ReachShares(ctx, f, clauses); err != nil {
			b.Fatal(err)
		}
	}
	estimate()
	estimate()
	for b.Loop() {
		estimate()
	}
}
