package serving

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAdmissionCostCharging wires a Cost function and pins the token
// arithmetic: a cost-c request drains c tokens, the rejection's Retry-After
// covers the time until the FULL cost accrues (not one token), and
// TokensCharged totals exactly the admitted work.
func TestAdmissionCostCharging(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1740000000, 0)}
	inner := &okHandler{}
	a := NewAdmission(AdmissionConfig{
		Rate: 1, Burst: 6, Now: clock.Now,
		Cost: func(r *http.Request) (float64, *http.Request) { return 3, r },
	}, inner)
	req := func() *http.Request { return httptest.NewRequest("GET", "/v9.0/act_5/reachestimate", nil) }

	// Burst 6 at cost 3 → exactly two admissions.
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		a.ServeHTTP(rec, req())
		if rec.Code != http.StatusOK {
			t.Fatalf("cost-3 request %d rejected with 6 burst tokens: %d", i, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, req())
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third cost-3 request admitted from an empty bucket: %d", rec.Code)
	}
	// The bucket is empty and the request needs 3 tokens at 1/s: the
	// advertised wait must be the full 3 seconds, not the 1s a flat-cost
	// bucket would quote.
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\" (time until the full cost accrues)", ra)
	}
	var body admissionError
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.RetryAfterSeconds != 3 {
		t.Fatalf("429 body retry_after_seconds = %v (err %v), want 3", body.Error.RetryAfterSeconds, err)
	}

	// Sleeping the advertised wait must admit the cost-3 request again.
	clock.Advance(3 * time.Second)
	rec = httptest.NewRecorder()
	a.ServeHTTP(rec, req())
	if rec.Code != http.StatusOK {
		t.Fatalf("request after the advertised wait rejected: %d", rec.Code)
	}

	st := a.Stats()
	if st.Admitted != 3 || st.Rejected != 1 {
		t.Fatalf("stats %+v, want 3 admitted / 1 rejected", st)
	}
	if st.TokensCharged != 9 {
		t.Fatalf("TokensCharged = %v, want 9 (3 admissions x cost 3)", st.TokensCharged)
	}
}

// TestAdmissionCostClamping pins the [1, Burst] clamp: a spec can never cost
// less than a request, and a single spec pricier than the whole bucket must
// still be admittable from a full bucket.
func TestAdmissionCostClamping(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1750000000, 0)}

	// Floor: cost 0.25 is charged as 1 — burst 2 admits exactly twice.
	low := NewAdmission(AdmissionConfig{
		Rate: 1, Burst: 2, Now: clock.Now,
		Cost: func(r *http.Request) (float64, *http.Request) { return 0.25, r },
	}, &okHandler{})
	hit := func(a *Admission) int {
		rec := httptest.NewRecorder()
		a.ServeHTTP(rec, httptest.NewRequest("GET", "/v9.0/act_1/reachestimate", nil))
		return rec.Code
	}
	for i := 0; i < 2; i++ {
		if hit(low) != http.StatusOK {
			t.Fatalf("floor-clamped request %d rejected", i)
		}
	}
	if hit(low) != http.StatusTooManyRequests {
		t.Fatal("sub-1 costs were charged below the floor: third request admitted from burst 2")
	}
	if st := low.Stats(); st.TokensCharged != 2 {
		t.Fatalf("TokensCharged = %v, want 2 (two floor-clamped charges)", st.TokensCharged)
	}

	// Ceiling: cost 100 over burst 4 is clamped to 4 — admittable exactly
	// once from a full bucket instead of never.
	high := NewAdmission(AdmissionConfig{
		Rate: 1, Burst: 4, Now: clock.Now,
		Cost: func(r *http.Request) (float64, *http.Request) { return 100, r },
	}, &okHandler{})
	if hit(high) != http.StatusOK {
		t.Fatal("over-burst cost not clamped: request rejected from a full bucket")
	}
	if hit(high) != http.StatusTooManyRequests {
		t.Fatal("second over-burst request admitted")
	}
	if st := high.Stats(); st.TokensCharged != 4 {
		t.Fatalf("TokensCharged = %v, want 4 (clamped to Burst)", st.TokensCharged)
	}
}

// TestAdmissionAdmitSweepRace is the -race satellite: competing goroutines
// drive Admission.admit while the idle-bucket sweep fires across an eviction
// boundary, and the token accounting must stay EXACT — under a frozen clock
// each hammer phase admits precisely Burst requests, whether the bucket was
// freshly created, drained, or evicted-and-recreated.
func TestAdmissionAdmitSweepRace(t *testing.T) {
	const (
		rate      = 5.0
		burst     = 40.0 // refill period = 8s
		workers   = 8
		perWorker = 25 // 200 requests per phase against a 40-token burst
	)
	clock := &fakeClock{t: time.Unix(1760000000, 0)}
	inner := &okHandler{}
	a := NewAdmission(AdmissionConfig{Rate: rate, Burst: burst, Now: clock.Now}, inner)

	hammer := func(acc string) (admitted, rejected int64) {
		var adm, rej atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				url := fmt.Sprintf("/v9.0/%s/reachestimate", acc)
				for i := 0; i < perWorker; i++ {
					rec := httptest.NewRecorder()
					a.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
					switch rec.Code {
					case http.StatusOK:
						adm.Add(1)
					case http.StatusTooManyRequests:
						rej.Add(1)
					default:
						t.Errorf("unexpected status %d", rec.Code)
					}
				}
			}()
		}
		wg.Wait()
		return adm.Load(), rej.Load()
	}

	// Phase 1: a frozen clock accrues nothing, so exactly Burst admissions.
	adm, rej := hammer("act_1")
	if adm != int64(burst) || rej != workers*perWorker-int64(burst) {
		t.Fatalf("phase 1: %d admitted / %d rejected, want exactly %v / %v",
			adm, rej, burst, workers*perWorker-int64(burst))
	}

	// Phase 2: cross the eviction boundary. After a full refill period of
	// idleness act_1's bucket is sweepable; the first arrivals race the
	// sweep (admit holds the same mutex, but -race checks the interleaving)
	// and every outcome — evicted-then-recreated or refilled in place — must
	// be worth exactly one full burst again.
	clock.Advance(9 * time.Second) // > 8s refill period
	adm, rej = hammer("act_1")
	if adm != int64(burst) || rej != workers*perWorker-int64(burst) {
		t.Fatalf("phase 2 (across eviction): %d admitted / %d rejected, want exactly %v / %v",
			adm, rej, burst, workers*perWorker-int64(burst))
	}

	st := a.Stats()
	if st.Evicted < 1 {
		t.Fatalf("the idle boundary evicted nothing: %+v", st)
	}
	if st.Admitted != 2*int64(burst) {
		t.Fatalf("total admitted %d, want %v", st.Admitted, 2*burst)
	}
	// Flat policy (no Cost): charged tokens == admissions, exactly.
	if st.TokensCharged != 2*burst {
		t.Fatalf("TokensCharged = %v, want %v", st.TokensCharged, 2*burst)
	}
	if inner.served.Load() != st.Admitted {
		t.Fatalf("inner served %d, admission admitted %d", inner.served.Load(), st.Admitted)
	}
}

// TestAdmissionRetryAfterHeaderMatchesWait double-checks the ceiled header
// against a fractional cost-induced wait (cost 2, one token short at rate
// 0.8/s → raw wait 1.25s → header 2).
func TestAdmissionRetryAfterHeaderMatchesWait(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1770000000, 0)}
	a := NewAdmission(AdmissionConfig{
		Rate: 0.8, Burst: 3, Now: clock.Now,
		Cost: func(r *http.Request) (float64, *http.Request) { return 2, r },
	}, &okHandler{})
	req := func() *http.Request { return httptest.NewRequest("GET", "/v9.0/act_2/reachestimate", nil) }

	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, req()) // 3 - 2 = 1 token left
	if rec.Code != http.StatusOK {
		t.Fatalf("first request rejected: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	a.ServeHTTP(rec, req()) // needs 2, has 1 → wait (2-1)/0.8 = 1.25s → ceil 2
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request admitted: %d", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra != 2 {
		t.Fatalf("Retry-After = %q, want \"2\" (ceil of 1.25s)", rec.Header().Get("Retry-After"))
	}
	clock.Advance(2 * time.Second)
	rec = httptest.NewRecorder()
	a.ServeHTTP(rec, req())
	if rec.Code != http.StatusOK {
		t.Fatalf("request after the advertised wait rejected: %d", rec.Code)
	}
}
