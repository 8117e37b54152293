package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nanotarget"
	"nanotarget/internal/adsapi"
	"nanotarget/internal/audience"
	"nanotarget/internal/core"
	"nanotarget/internal/geo"
	"nanotarget/internal/interest"
	"nanotarget/internal/parallel"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/serving"
)

// Traffic shape shared by the workloads: a closed loop of `clients`
// concurrent callers, each sending its next request when the previous one
// is answered. 8 callers, 400 accounts and 18 interests are the flood the
// repository records (make bench-serving: fbadsload -concurrency 8, and
// scripts/proxy_smoke.sh against the proxy topology).
const (
	clients      = 8
	accounts     = 400 // advertiser accounts of the flood workloads
	setInterests = 18  // interests per flood conjunction (loadgen's default)
	warmRequests = 2_000

	panelUsersPerRound = 40   // Table 1 study: panel users collected per round
	bootstrapIters     = 200  // Table 1 study: resamples per N_P estimate
	panelSize          = 2390 // the paper's panel
)

// workload is one traffic mix against the deployment.
type workload interface {
	// cacheMode is the audience-cache contract the deployment serves the
	// workload with.
	cacheMode() audience.Mode
	// warm sends untimed traffic that fills caches and connection pools.
	warm(st *stack, client *http.Client) error
	// measure runs the mix from start until the deadline and reports what
	// it saw.
	measure(st *stack, client *http.Client, start, until time.Time) result
	// verify checks the answers measure returned against the oracle.
	verify(o *oracle, answers []answer) (mismatches int, err error)
}

// result is one measurement window from the callers' side.
type result struct {
	answered  []sample
	answers   []answer
	attempted int
	failed    int
}

// sample is one answered request: when it completed, measured from the
// window's start, and how long it took.
type sample struct {
	at time.Duration
	ms float64
}

// answer is one recorded reach estimate: the conjunction asked and the
// Potential Reach the service returned.
type answer struct {
	ids   []interest.ID
	reach int64
}

// --- flood workloads: reprobe and fresh ---

// flood sends reach-estimate requests spread round-robin over the advertiser
// accounts. Request i asks spec(i), a pure function of the seed and i, drawn
// when the request is sent: there is no pool to run out of or to wrap
// around, however many requests a window holds.
type flood struct {
	geo  adsapi.GeoLocations
	mode audience.Mode
	spec func(i int) []interest.ID
	next atomic.Int64
}

// newReprobe is the permuted re-probe flood (Faizullabhoy & Korolova): each
// account holds one random interest set and re-probes it in fresh
// permutations. It is served in canonical mode (fbadsd -cache-mode
// canonical), the contract built for this traffic: after an account's first
// probe the set cache answers every re-probe.
func newReprobe(seed uint64) *flood {
	master := rng.New(seed)
	sets := make([][]interest.ID, accounts)
	for a := range sets {
		sets[a] = drawSet(master.Derive(fmt.Sprintf("account-%d", a)))
	}
	return &flood{
		geo:  adsapi.GeoLocations{Countries: []string{"US"}},
		mode: audience.ModeCanonical,
		spec: func(i int) []interest.ID {
			a, p := i%accounts, i/accounts
			ids := slices.Clone(sets[a])
			r := master.Derive(fmt.Sprintf("account-%d-probe-%d", a, p))
			r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			return ids
		},
	}
}

// newFresh sends a never-repeated random conjunction with every request, so
// every request misses the audience cache and runs the row kernel. It is
// served in exact mode, fbadsd's default.
func newFresh(seed uint64) *flood {
	master := rng.New(seed)
	return &flood{
		geo:  adsapi.GeoLocations{Countries: []string{"US"}},
		mode: audience.ModeExact,
		spec: func(i int) []interest.ID { return drawSet(master.Derive(fmt.Sprintf("fresh-%d", i))) },
	}
}

func (f *flood) cacheMode() audience.Mode { return f.mode }

// drawSet draws setInterests distinct catalog IDs.
func drawSet(r *rng.Rand) []interest.ID {
	ids := make([]interest.ID, 0, setInterests)
	for len(ids) < setInterests {
		id := interest.ID(1 + r.Intn(catalogSize-1))
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// warm sends the first warmRequests requests untimed.
func (f *flood) warm(st *stack, client *http.Client) error {
	res := f.run(st, client, time.Now(), func(i int) bool { return i < warmRequests })
	if res.failed > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed", res.failed, res.attempted)
	}
	return nil
}

func (f *flood) measure(st *stack, client *http.Client, start, until time.Time) result {
	return f.run(st, client, start, func(int) bool { return time.Now().Before(until) })
}

// url is request i: its account's reach-estimate URL and the conjunction it
// asks.
func (f *flood) url(st *stack, i int) (string, []interest.ID, error) {
	ids := f.spec(i)
	spec, err := json.Marshal(adsapi.ConjunctionSpec(f.geo, ids))
	return fmt.Sprintf("%s/%s/act_%d/reachestimate?targeting_spec=%s",
		st.apiURL, adsapi.APIVersion, 1+i%accounts, url.QueryEscape(string(spec))), ids, err
}

// run drives the closed loop while more(i) holds for the next request
// index i; sample times count from t0. A request's latency starts after its
// URL is built.
func (f *flood) run(st *stack, client *http.Client, t0 time.Time, more func(i int) bool) result {
	var (
		mu  sync.Mutex
		res result
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var done []sample
			var answers []answer
			attempted, failed := 0, 0
			for {
				i := int(f.next.Add(1) - 1)
				if !more(i) {
					break
				}
				attempted++
				u, ids, err := f.url(st, i)
				if err != nil {
					failed++
					fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", i, err)
					continue
				}
				sent := time.Now()
				reach, err := getReach(client, u)
				if err != nil {
					failed++
					if failed <= 3 {
						fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", i, err)
					}
					continue
				}
				now := time.Now()
				done = append(done, sample{at: now.Sub(t0), ms: msSince(sent, now)})
				answers = append(answers, answer{ids: ids, reach: reach})
			}
			mu.Lock()
			res.answered = append(res.answered, done...)
			res.answers = append(res.answers, answers...)
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res
}

// getReach sends one reach-estimate request and returns the Potential Reach.
func getReach(client *http.Client, u string) (int64, error) {
	resp, err := client.Get(u)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
	}
	return decodeReach(body)
}

func decodeReach(body []byte) (int64, error) {
	var out struct {
		Data struct {
			Users         int64 `json:"users"`
			EstimateReady bool  `json:"estimate_ready"`
		} `json:"data"`
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("decoding reach: %w", err)
	}
	if !out.Data.EstimateReady || out.Degraded {
		return 0, fmt.Errorf("estimate not ready or degraded: %.200s", body)
	}
	return out.Data.Users, nil
}

func (f *flood) verify(o *oracle, answers []answer) (int, error) {
	return o.check(f.geo, answers, f.mode)
}

// --- the Table 1 study ---

// study runs the paper's §4 uniqueness study (Table 1: N_P for the
// least-popular and random selections at P = 0.5/0.8/0.9/0.95) the way the
// paper collected it: every Potential Reach comes from the reach-estimate
// API, one request per interest prefix of each panel user's selection, and
// N_P is then bootstrapped from the collected samples. Each round takes the
// next slice of the panel, so rounds do not repeat each other's queries. It
// is served in exact mode, fbadsd's default, whose ordered prefix cache the
// grow-by-one prefix chains reuse.
type study struct {
	seed   uint64
	users  []*population.User
	cat    *interest.Catalog
	geo    adsapi.GeoLocations
	offset int
	rounds int
	last   *core.StudyResult // the last round's Table 1
}

func newStudy(seed uint64) (*study, error) {
	cfg := worldConfig(audience.ModeExact)
	cfg.Population.PanelSize = panelSize
	w, err := nanotarget.NewWorldFromConfig(cfg)
	if err != nil {
		return nil, err
	}
	var countries []string
	for _, c := range geo.Top50() {
		countries = append(countries, c.Code)
	}
	users := w.PanelUsers()
	return &study{
		seed:   seed,
		users:  users,
		cat:    w.Model().Catalog(),
		geo:    adsapi.GeoLocations{Countries: countries},
		offset: int(rng.New(seed).Derive("panel-offset").Intn(len(users))),
	}, nil
}

func (s *study) cacheMode() audience.Mode { return audience.ModeExact }

func (s *study) warm(st *stack, client *http.Client) error {
	_, err := s.round(st, client, nil)
	return err
}

func (s *study) measure(st *stack, client *http.Client, start, until time.Time) result {
	var res result
	for time.Now().Before(until) {
		rec := requestLog{t0: start}
		last, err := s.round(st, client, &rec)
		res.answered = append(res.answered, rec.answered...)
		res.answers = append(res.answers, rec.answers...)
		res.attempted += rec.attempted
		res.failed += rec.failed
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: study round: %v\n", err)
			if rec.failed == 0 {
				res.failed++ // the estimate itself failed
			}
			continue
		}
		s.last = last
	}
	return res
}

// round runs one Table 1 study over the next panel slice; log, when
// non-nil, records every reach request.
func (s *study) round(st *stack, client *http.Client, log *requestLog) (*core.StudyResult, error) {
	users := make([]*population.User, panelUsersPerRound)
	for k := range users {
		users[k] = s.users[(s.offset+s.rounds*panelUsersPerRound+k)%len(s.users)]
	}
	r := s.rounds
	s.rounds++
	api, err := adsapi.NewClient(adsapi.ClientConfig{BaseURL: st.apiURL, HTTPClient: client})
	if err != nil {
		return nil, err
	}
	src := &studySource{
		inner: &adsapi.Source{Client: api, Geo: s.geo, MinReach: adsapi.Era2017.MinReach},
		cat:   s.cat,
		log:   log,
	}
	cfg := core.DefaultStudyConfig(rng.New(s.seed).Derive(fmt.Sprintf("round-%d", r)))
	cfg.BootstrapIters = bootstrapIters
	cfg.Parallelism = clients
	return core.RunStudy(users, src, cfg)
}

// studySource is the API-backed audience source the study collects through,
// with every request timed. Catalog lets the least-popular selector rank a
// user's interests, as the paper did from the interests' audience sizes.
type studySource struct {
	inner *adsapi.Source
	cat   *interest.Catalog
	log   *requestLog
}

func (s *studySource) Catalog() *interest.Catalog { return s.cat }
func (s *studySource) Floor() int64               { return s.inner.Floor() }

func (s *studySource) PotentialReach(ids []interest.ID) (int64, error) {
	sent := time.Now()
	reach, err := s.inner.PotentialReach(ids)
	if s.log != nil {
		s.log.add(ids, reach, sent, time.Now(), err)
	}
	return reach, err
}

// requestLog collects one round's requests from the collection workers.
type requestLog struct {
	t0        time.Time // the measurement window's start
	mu        sync.Mutex
	answered  []sample
	answers   []answer
	attempted int
	failed    int
}

func (l *requestLog) add(ids []interest.ID, reach int64, sent, now time.Time, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		return
	}
	l.answered = append(l.answered, sample{at: now.Sub(l.t0), ms: msSince(sent, now)})
	l.answers = append(l.answers, answer{ids: slices.Clone(ids), reach: reach})
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / float64(time.Millisecond) }

func (s *study) verify(o *oracle, answers []answer) (int, error) {
	bad, err := o.check(s.geo, answers, s.cacheMode())
	if err != nil || s.last == nil {
		return bad, err
	}
	// The collected samples must also make a sensible Table 1: finite
	// positive N_P, and fewer least-popular than random interests needed
	// at P = 0.9 (the paper's 4 vs 22).
	np := map[string]float64{}
	for _, row := range s.last.Rows {
		e := row.Estimate
		if math.IsNaN(e.NP) || math.IsInf(e.NP, 0) || e.NP <= 0 {
			return bad, fmt.Errorf("Table 1 %s N_%.2f = %v", row.Strategy, e.P, e.NP)
		}
		if e.P == 0.9 {
			np[row.Strategy] = e.NP
		}
	}
	if !(np["LP"] < np["R"]) {
		return bad, fmt.Errorf("Table 1 N_0.9: LP %v is not below R %v", np["LP"], np["R"])
	}
	return bad, nil
}

// --- correctness oracle ---

// oracle answers reach estimates from an uncached in-process sharded world
// at the deployment's shard split. The proxy folds shard shares exactly as
// the in-process sharded backend does. The exact cache is byte-invisible, so
// a served estimate must equal the oracle's for the spec as sent; the
// canonical cache answers a conjunction with the exact share of its sorted
// interest order, so there it must equal the oracle's for the sorted spec.
type oracle struct{ api *adsapi.Server }

func newOracle() (*oracle, error) {
	cfg := worldConfig(audience.ModeExact)
	cfg.Cache.Disabled = true
	backend, err := serving.NewShardedBackend(context.Background(), cfg, numShards)
	if err != nil {
		return nil, err
	}
	api, err := adsapi.NewServer(adsapi.ServerConfig{Backend: backend, Era: adsapi.Era2017})
	if err != nil {
		return nil, err
	}
	return &oracle{api: api}, nil
}

// check counts the distinct conjunctions whose served estimates differ from
// the oracle's or from each other; mode is the cache contract they were
// served under.
func (o *oracle) check(g adsapi.GeoLocations, answers []answer, mode audience.Mode) (int, error) {
	served := map[string]int64{}
	bad := 0
	for _, a := range answers {
		ids := a.ids
		if mode == audience.ModeCanonical {
			ids = slices.Sorted(slices.Values(ids))
		}
		spec, err := json.Marshal(adsapi.ConjunctionSpec(g, ids))
		if err != nil {
			return 0, err
		}
		if v, ok := served[string(spec)]; !ok {
			served[string(spec)] = a.reach
		} else if v != a.reach {
			fmt.Fprintf(os.Stderr, "perfbench: %s answered %d and %d\n", spec, v, a.reach)
			bad++
		}
	}
	specs := slices.Sorted(maps.Keys(served))
	want, err := parallel.Map(context.Background(), len(specs), 0, func(i int) (int64, error) {
		return o.reach(specs[i])
	})
	if err != nil {
		return 0, err
	}
	for i, spec := range specs {
		if got := served[spec]; got != want[i] {
			if bad < 3 {
				fmt.Fprintf(os.Stderr, "perfbench: %s served %d, oracle says %d\n", spec, got, want[i])
			}
			bad++
		}
	}
	return bad, nil
}

// reach asks the oracle's API for one targeting spec.
func (o *oracle) reach(spec string) (int64, error) {
	req := httptest.NewRequest(http.MethodGet, "/"+adsapi.APIVersion+"/act_1/reachestimate?targeting_spec="+url.QueryEscape(spec), nil)
	rr := httptest.NewRecorder()
	o.api.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		return 0, fmt.Errorf("oracle: HTTP %d: %.200s", rr.Code, rr.Body.String())
	}
	return decodeReach(rr.Body.Bytes())
}
