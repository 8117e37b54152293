package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestClassifyTable pins the response taxonomy the smoke gates depend on —
// in particular that a 503 WITH Retry-After is a shed (healthy server
// protecting itself) while a bare 503 stays an error (something broke), and
// that FB code 17 is recognized at any status.
func TestClassifyTable(t *testing.T) {
	withRetry := http.Header{"Retry-After": {"2"}}
	code17 := []byte(`{"error": {"message": "limit", "type": "OAuthException", "code": 17}}`)
	for _, tc := range []struct {
		name   string
		status int
		header http.Header
		body   []byte
		want   outcome
	}{
		{"ok", http.StatusOK, nil, []byte(`{"data":{}}`), outcomeOK},
		{"admission 429", http.StatusTooManyRequests, withRetry, []byte(`{"error":{"code":429}}`), outcomeRejected},
		{"gate shed", http.StatusServiceUnavailable, withRetry, []byte(`{"error":{"type":"LoadShed"}}`), outcomeShed},
		{"outage 503", http.StatusServiceUnavailable, nil, []byte(`{"error":{"message":"shard down"}}`), outcomeError},
		{"rate-limited 503", http.StatusServiceUnavailable, nil, code17, outcomeRateLimited},
		{"deadline 504", http.StatusGatewayTimeout, nil, []byte("deadline exhausted"), outcomeDeadline},
		{"fb code 17", http.StatusBadRequest, nil, code17, outcomeRateLimited},
		{"other 400", http.StatusBadRequest, nil, []byte(`{"error":{"code":100}}`), outcomeError},
		{"server 500", http.StatusInternalServerError, nil, []byte("boom"), outcomeError},
	} {
		header := tc.header
		if header == nil {
			header = http.Header{}
		}
		if got := classify(tc.status, header, tc.body); got != tc.want {
			t.Errorf("%s: classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRunTalliesShedAndDeadline drives one account per response class and
// checks each lands in its own Result bucket — the tallies the proxy smoke
// gates on.
func TestRunTalliesShedAndDeadline(t *testing.T) {
	acct := regexp.MustCompile(`/act_(\d+)/`)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch acct.FindStringSubmatch(r.URL.Path)[1] {
		case "1": // the gate shedding
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error": {"message": "shedding", "type": "LoadShed", "code": 503}}`)
		case "2": // the serving stack abandoning an exhausted deadline
			http.Error(w, "deadline exhausted before compute", http.StatusGatewayTimeout)
		case "3":
			fmt.Fprint(w, `{"data": {"users": 20, "estimate_ready": true}}`)
		default: // a real outage: 503 with no Retry-After
			http.Error(w, `{"error": {"message": "1 shard(s) down"}}`, http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()

	res, err := Run(context.Background(), Config{
		BaseURL:          srv.URL,
		Accounts:         4,
		ProbesPerAccount: 2,
		Interests:        3,
		CatalogSize:      300,
		Seed:             9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 2 || res.DeadlineExceeded != 2 || res.OK != 2 || res.Errors != 2 {
		t.Fatalf("tally split wrong: %+v", res)
	}
	if res.Rejected != 0 || res.RateLimited != 0 {
		t.Fatalf("shed/deadline leaked into other buckets: %+v", res)
	}
}

// TestResultJSONKeys pins the artifact schema the smoke gates grep: shed and
// deadline_exceeded are ALWAYS present (a healthy run proves itself with
// explicit zeros).
func TestResultJSONKeys(t *testing.T) {
	b, err := json.Marshal(Result{Requests: 1, OK: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, key := range []string{`"shed":0`, `"deadline_exceeded":0`} {
		if !strings.Contains(s, key) {
			t.Errorf("healthy Result JSON lacks explicit %s: %s", key, s)
		}
	}
}

// TestRunRequestTimeoutTalliesDeadline: a hung server plus RequestTimeout
// means every probe dies by deadline — tallied as DeadlineExceeded, not
// Errors, and with no answered request the quantiles stay zero instead of
// being dragged there by sentinel samples.
func TestRunRequestTimeoutTalliesDeadline(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer hung.Close()

	start := time.Now()
	res, err := Run(context.Background(), Config{
		BaseURL:          hung.URL,
		Accounts:         2,
		ProbesPerAccount: 2,
		Interests:        3,
		CatalogSize:      300,
		Seed:             11,
		Concurrency:      4,
		RequestTimeout:   30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run took %v against a hung server — RequestTimeout did not bite", elapsed)
	}
	if res.DeadlineExceeded != 4 || res.Errors != 0 || res.OK != 0 {
		t.Fatalf("timed-out probes misclassified: %+v", res)
	}
	if res.P50Ms != 0 {
		t.Fatalf("quantiles computed from unanswered probes: %+v", res)
	}
}
