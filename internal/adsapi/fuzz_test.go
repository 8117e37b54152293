package adsapi

// Native Go fuzz targets for the request-parsing surface: the simulated
// Marketing API accepts attacker-controlled JSON (targeting specs, interest
// IDs), so parsing must never panic and accepted inputs must uphold the
// invariants the handlers rely on. CI runs each target for a short
// -fuzztime as a smoke job (see .github/workflows/ci.yml); longer local
// runs: go test -run '^$' -fuzz FuzzTargetingSpecParse ./internal/adsapi
// -fuzztime 60s.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/serving"
)

// fuzzWorld builds one small model + server shared by every fuzz iteration
// (fuzzing re-enters the target thousands of times; world construction must
// happen once).
var fuzzWorld struct {
	once  sync.Once
	model *population.Model
	srv   *Server
	ts    *httptest.Server
}

func fuzzServer(f *testing.F) (*population.Model, *httptest.Server) {
	f.Helper()
	fuzzWorld.once.Do(func() {
		icfg := interest.DefaultConfig()
		icfg.Size = 500
		cat, err := interest.Generate(icfg, rng.New(1))
		if err != nil {
			panic(err)
		}
		pcfg := population.DefaultConfig(cat)
		pcfg.ActivityGridSize = 64
		m, err := population.NewModel(pcfg)
		if err != nil {
			panic(err)
		}
		backend, err := serving.NewLocalBackend(m, nil)
		if err != nil {
			panic(err)
		}
		srv, err := NewServer(ServerConfig{Backend: backend})
		if err != nil {
			panic(err)
		}
		fuzzWorld.model = m
		fuzzWorld.srv = srv
		fuzzWorld.ts = httptest.NewServer(srv)
	})
	return fuzzWorld.model, fuzzWorld.ts
}

// FuzzTargetingSpecParse checks the spec pipeline's invariant: any input
// that survives strict decoding AND era validation must convert to clauses
// without error — the handlers assume exactly that.
func FuzzTargetingSpecParse(f *testing.F) {
	model, _ := fuzzServer(f)
	cat := model.Catalog()
	f.Add(`{"geo_locations":{"countries":["ES"]}}`)
	f.Add(string(marshalJSON(ConjunctionSpec(GeoLocations{Countries: []string{"ES"}}, []interest.ID{1, 2, 3}))))
	f.Add(`{"geo_locations":{"worldwide":true},"genders":[1],"age_min":18,"age_max":65}`)
	f.Add(`{"geo_locations":{"countries":["XX"]}}`)
	f.Add(`{"flexible_spec":[{"interests":[{"id":"6000000000042"}]}]}`)
	f.Add(`{"unknown_field":1}`)
	f.Add(`[]`)
	f.Fuzz(func(t *testing.T, raw string) {
		var spec TargetingSpec
		if err := unmarshalStrict(raw, &spec); err != nil {
			return // rejected inputs are fine; panics are not
		}
		for _, era := range []Era{Era2017, Era2020, EraWorkaround} {
			if err := spec.Validate(era, cat); err != nil {
				continue
			}
			clauses, err := spec.Clauses()
			if err != nil {
				t.Fatalf("validated spec failed Clauses: %v (spec %q)", err, raw)
			}
			total := 0
			for _, c := range clauses {
				total += len(c)
			}
			if total > era.MaxInterests {
				t.Fatalf("validated spec exceeds era interest cap: %d > %d (spec %q)",
					total, era.MaxInterests, raw)
			}
			// The demographic filter must be constructible and in range.
			filter := spec.DemoFilter()
			if s := model.DemoShare(filter); s < 0 || s > 1 {
				t.Fatalf("demo share %v out of [0,1] (spec %q)", s, raw)
			}
		}
	})
}

// FuzzTargetingSpecFastPath checks the reflection-free spec decoder against
// its reference: whenever decodeSpecFast accepts an input, unmarshalStrict
// accepts it too and decodes a reflect.DeepEqual spec. Inputs the fast
// decoder declines go to unmarshalStrict alone, so they need no check.
func FuzzTargetingSpecFastPath(f *testing.F) {
	for _, tc := range admissionCostCorpus() {
		f.Add(tc.spec)
	}
	for _, tc := range fastPathCases {
		f.Add(tc.raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		fast, ok := decodeSpecFast(raw)
		if !ok {
			return
		}
		var want TargetingSpec
		if err := unmarshalStrict(raw, &want); err != nil {
			t.Fatalf("fast path accepted %q, unmarshalStrict rejects it: %v", raw, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("spec %q: fast path decoded %#v, unmarshalStrict %#v", raw, fast, want)
		}
	})
}

// fastPathCases pin which specs take the fast path: the canonical forms
// clients send must, and everything outside the subset must fall back.
var fastPathCases = []struct {
	raw  string
	fast bool
}{
	{`{}`, true},
	{`{"geo_locations":{"countries":["ES"]},"flexible_spec":[{"interests":[{"id":"6000000000001"}]},{"interests":[{"id":"6000000000002","name":"x y"}]}]}`, true},
	{" {\n\t\"geo_locations\" : {\"worldwide\":true, \"countries\":[]}, \"genders\":[1,2],\"age_min\":-0,\"age_max\":999999999 }\r\n", true},
	{`{"genders":[],"flexible_spec":[],"geo_locations":{"worldwide":false}}`, true},
	{`{"flexible_spec":[{},{"interests":[]},{"interests":[{}]}]}`, true},
	{`null`, false},
	{`{"geo_locations":null}`, false},
	{`{"geo_locations":{"countries":["E\u0053"]}}`, false},
	{`{"geo_locations":{"countries":["ÉS"]}}`, false},
	{`{"Genders":[1]}`, false},
	{`{"age_min":18,"age_min":20}`, false},
	{`{"geo_locations":{"countries":["ES"],"countries":["FR"]}}`, false},
	{`{"age_min":1000000000}`, false},
	{`{"age_min":018}`, false},
	{`{"age_min":18.0}`, false},
	{`{"age_min":1e1}`, false},
	{`{"age_min":+1}`, false},
	{`{"bogus":1}`, false},
	{`{"age_min":18,}`, false},
	{`{"age_min":18} {}`, false},
	{`{"geo_locations":{"worldwide":1}}`, false},
	{`{"flexible_spec":[{"interests":[{"id":6000000000001}]}]}`, false},
}

// TestTargetingSpecFastPath checks fastPathCases: a spec in the subset
// decodes on the fast path to unmarshalStrict's value, and any other is
// declined.
func TestTargetingSpecFastPath(t *testing.T) {
	for _, tc := range fastPathCases {
		fast, ok := decodeSpecFast(tc.raw)
		if ok != tc.fast {
			t.Errorf("%q: fast path %v, want %v", tc.raw, ok, tc.fast)
			continue
		}
		if !ok {
			continue
		}
		var want TargetingSpec
		if err := unmarshalStrict(tc.raw, &want); err != nil || !reflect.DeepEqual(fast, want) {
			t.Errorf("%q: fast path %#v, unmarshalStrict %#v (err %v)", tc.raw, fast, want, err)
		}
	}
}

// FuzzParseFBInterestID checks the ID codec never panics and stays a
// partial inverse of FBInterestID.
func FuzzParseFBInterestID(f *testing.F) {
	f.Add("6000000000000")
	f.Add("6000000000042")
	f.Add("-1")
	f.Add("abc")
	f.Add("999999999999999999999999")
	for _, raw := range malformedFBInterestIDs {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		id, err := ParseFBInterestID(raw)
		if err != nil {
			return
		}
		// Accepted IDs must be in the canonical encoder's form, so no two
		// accepted strings name one interest...
		if canon := FBInterestID(id); canon != raw {
			t.Fatalf("accepted non-canonical %q as id %d (canonical %q)", raw, id, canon)
		}
		// ...and round-trip through it.
		back, err := ParseFBInterestID(FBInterestID(id))
		if err != nil || back != id {
			t.Fatalf("round trip of %q: id %d -> %d, err %v", raw, id, back, err)
		}
	})
}

// FuzzReachEstimateHandler drives the HTTP surface end to end with
// arbitrary targeting_spec payloads: the server must always answer with
// well-formed JSON (a reach payload byte-identical to encoding/json's, or an
// API error), never panic, never report a reach below the era floor, answer
// byte-identically behind
// AdmissionCost-priced admission (which hands the server its parse), and
// price every spec it answers 200 at that spec's SpecCost — never at the
// floor reserved for rejects.
func FuzzReachEstimateHandler(f *testing.F) {
	_, ts := fuzzServer(f)
	front := serving.NewAdmission(serving.AdmissionConfig{Rate: 1e9, Cost: AdmissionCost}, fuzzWorld.srv)
	f.Add(`{"geo_locations":{"countries":["ES"]}}`)
	f.Add(`{"flexible_spec":[{"interests":[{"id":"6000000000007"}]}],"geo_locations":{"countries":["US","ES"]}}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`{"geo_locations":{"countries":["ES"]},"age_min":99,"age_max":1}`)
	f.Add(`{"flexible_spec":[{"interests":[{"id":"6000000000001"}]},{"interests":[{"id":"6000000000002"}]}],"geo_locations":{"countries":["ES"]}} trailing`)
	f.Add(`{"geo_locations":{"countries":["ES"]}}{"x":1}`)
	f.Fuzz(func(t *testing.T, rawSpec string) {
		path := "/" + APIVersion + "/act_1/reachestimate?targeting_spec=" + url.QueryEscape(rawSpec)
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("transport error: %v", err)
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading body: %v", err)
		}
		admitted := httptest.NewRecorder()
		front.ServeHTTP(admitted, httptest.NewRequest(http.MethodGet, path, nil))
		if admitted.Code != resp.StatusCode || !bytes.Equal(admitted.Body.Bytes(), body) {
			t.Fatalf("spec %q: bare server HTTP %d %q, behind admission HTTP %d %q",
				rawSpec, resp.StatusCode, body, admitted.Code, admitted.Body)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var out reachResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("200 with unparsable body %q: %v", body, err)
			}
			if want := marshalJSON(reachResponse{Data: ReachEstimate{Users: out.Data.Users, EstimateReady: true}}); !bytes.Equal(body, want) {
				t.Fatalf("spec %q: 200 body %q, want encoding/json's %q", rawSpec, body, want)
			}
			if out.Data.Users < Era2017.MinReach {
				t.Fatalf("reach %d below floor for spec %q", out.Data.Users, rawSpec)
			}
			var spec TargetingSpec
			if err := json.Unmarshal([]byte(rawSpec), &spec); err != nil {
				t.Fatalf("200 for a spec that is not one JSON value %q: %v", rawSpec, err)
			}
			clauses, err := spec.Clauses()
			if err != nil {
				t.Fatalf("200 for a spec without clauses %q: %v", rawSpec, err)
			}
			want := serving.SpecCost(spec.DemoFilter(), clauses)
			if got, _ := AdmissionCost(httptest.NewRequest(http.MethodGet, path, nil)); got != want {
				t.Fatalf("spec %q answered 200 but priced %v, want its SpecCost %v", rawSpec, got, want)
			}
		case http.StatusBadRequest:
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
				t.Fatalf("400 with unparsable error body %q: %v", body, err)
			}
		default:
			t.Fatalf("unexpected status %d for spec %q (body %q)", resp.StatusCode, rawSpec, body)
		}
	})
}

// FuzzEdgeQuery checks the edge's one-pass query scan against its
// reference: for any raw query, edgeQuery's targeting_spec and access_token
// are url.ParseQuery's first values for those keys.
func FuzzEdgeQuery(f *testing.F) {
	for _, tc := range reachErrorCases() {
		f.Add(tc.query)
	}
	f.Add("access_token=a+b&targeting_spec=%7B%7D")
	f.Add("access%5Ftoken=x;&access_token=y&access_token=z")
	f.Add("targeting_spec=%&targeting_spec=ok&&=&access_token")
	f.Add("targeting+spec=1&targeting_spec+=2&%74argeting_spec=3")
	f.Fuzz(func(t *testing.T, raw string) {
		spec, token := edgeQuery(raw)
		want, _ := url.ParseQuery(raw)
		if spec != want.Get("targeting_spec") || token != want.Get("access_token") {
			t.Fatalf("query %q: edgeQuery read spec %q, token %q; url.ParseQuery %q, %q",
				raw, spec, token, want.Get("targeting_spec"), want.Get("access_token"))
		}
	})
}

// FuzzReachAnswerScan checks the client's reach-answer scanner against
// encoding/json: whenever it accepts a body, the body is encoding/json's
// encoding of the ready estimate it decoded, and json.Unmarshal decodes the
// same response; and it accepts every such encoding.
func FuzzReachAnswerScan(f *testing.F) {
	for _, users := range []int64{0, 1, -1, 20, 1234, math.MaxInt64, math.MinInt64} {
		f.Add(marshalJSON(reachResponse{Data: ReachEstimate{Users: users, EstimateReady: true}}))
	}
	for _, body := range []string{
		`{"data":{"users":-0,"estimate_ready":true}}`,
		`{"data":{"users":007,"estimate_ready":true}}`,
		`{"data":{"users":1e3,"estimate_ready":true}}`,
		`{"data":{"users":+5,"estimate_ready":true}}`,
		`{"data":{"users":9223372036854775808,"estimate_ready":true}}`,
		`{"data":{"users":-9223372036854775809,"estimate_ready":true}}`,
		`{"data":{"users":99999999999999999999,"estimate_ready":true}}`,
		`{"data":{"users":,"estimate_ready":true}}`,
		`{"data":{"users":5,"estimate_ready":false}}`,
		`{"data": {"users":5,"estimate_ready":true}}`,
		`{"data":{"users":5,"estimate_ready":true}}` + "\n",
		`{"error":{"message":"m","type":"OAuthException","code":100,"fbtrace_id":"sim"}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got reachResponse
		if got.scan(body) {
			if want := marshalJSON(got); !bytes.Equal(body, want) || !got.Data.EstimateReady {
				t.Fatalf("scan accepted %q as %+v, whose encoding is %q", body, got, want)
			}
			var ref reachResponse
			if err := json.Unmarshal(body, &ref); err != nil || ref != got {
				t.Fatalf("scan decoded %q as %+v; json.Unmarshal %+v, %v", body, got, ref, err)
			}
			return
		}
		if got != (reachResponse{}) {
			t.Fatalf("scan refused %q but decoded %+v", body, got)
		}
		var ref reachResponse
		if json.Unmarshal(body, &ref) == nil && ref.Data.EstimateReady && bytes.Equal(body, marshalJSON(ref)) {
			t.Fatalf("scan refused encoding/json's encoding %q of %+v", body, ref)
		}
	})
}
