package adsapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientRetriesServerErrors verifies the client survives transient 5xx
// responses (the real Marketing API throws these under load) and succeeds
// once the backend recovers.
func TestClientRetriesServerErrors(t *testing.T) {
	m := testModel(t)
	real, err := NewServer(ServerConfig{Backend: localBackend(t, m)})
	if err != nil {
		t.Fatal(err)
	}
	var failures int32 = 2
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&failures, -1) >= 0 {
			http.Error(w, "internal error", http.StatusInternalServerError)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	slept := 0
	c, err := NewClient(ClientConfig{
		BaseURL:    flaky.URL,
		AccountID:  "1",
		MaxRetries: 4,
		RetryBase:  time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reach, err := c.ReachEstimate(context.Background(), ConjunctionSpec(es(), nil))
	if err != nil {
		t.Fatalf("client gave up despite retries: %v", err)
	}
	if reach <= 0 {
		t.Fatalf("reach %d", reach)
	}
	if slept != 2 {
		t.Fatalf("expected 2 backoff sleeps, got %d", slept)
	}
}

// TestClientContextCancellation verifies an exhausted context aborts the
// retry loop promptly instead of spinning.
func TestClientContextCancellation(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer dead.Close()
	c, err := NewClient(ClientConfig{
		BaseURL:    dead.URL,
		MaxRetries: 10,
		RetryBase:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ReachEstimate(ctx, ConjunctionSpec(es(), nil)); err == nil {
		t.Fatal("cancelled context produced a result")
	}
}

// TestClientRetriesExhaust verifies a persistent 5xx eventually surfaces as
// an error naming the cause.
func TestClientRetriesExhaust(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer dead.Close()
	c, err := NewClient(ClientConfig{
		BaseURL:    dead.URL,
		MaxRetries: 2,
		RetryBase:  time.Millisecond,
		Sleep:      func(ctx context.Context, d time.Duration) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ReachEstimate(context.Background(), ConjunctionSpec(es(), nil))
	if err == nil {
		t.Fatal("persistent failure produced a result")
	}
}

// TestParseRetryAfter pins the client's Retry-After parser: delay-seconds
// only, and anything unparseable, negative or too large for a
// time.Duration is "no advice" — a wrapped conversion would otherwise sleep
// until the caller's context ends.
func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"3", 3 * time.Second},
		{" 3 ", 3 * time.Second},
		{"", 0},
		{"-1", 0},
		{"abc", 0},
		{"20000000000", 0},
	} {
		if got := ParseRetryAfter(tc.in); got != tc.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
