package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"nanotarget/internal/rng"
)

func TestQuantileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	got, _ := Quantile(xs, 0.5)
	if got != 5 {
		t.Fatalf("Quantile(0.5) of {0,10} = %v, want 5", got)
	}
	got, _ = Quantile(xs, 0.9)
	if math.Abs(got-9) > 1e-12 {
		t.Fatalf("Quantile(0.9) of {0,10} = %v, want 9", got)
	}
}

func TestQuantileUnsortedInput(t *testing.T) {
	a, _ := Quantile([]float64{5, 1, 4, 2, 3}, 0.5)
	b, _ := Quantile([]float64{1, 2, 3, 4, 5}, 0.5)
	if a != b {
		t.Fatalf("quantile depends on input order: %v vs %v", a, b)
	}
}

func TestQuantileEmpty(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestQuantileSingle(t *testing.T) {
	for _, q := range []float64{0, 0.3, 1} {
		got, _ := Quantile([]float64{7}, q)
		if got != 7 {
			t.Fatalf("Quantile(%v) of single = %v", q, got)
		}
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for q>1")
		}
	}()
	_, _ = Quantile([]float64{1}, 1.5)
}

func TestQuantilesMatchesQuantile(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 2}
	qs := []float64{0.1, 0.5, 0.9}
	multi, err := Quantiles(xs, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		single, _ := Quantile(xs, q)
		if multi[i] != single {
			t.Errorf("Quantiles[%v]=%v != Quantile=%v", q, multi[i], single)
		}
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, _ := Mean(xs)
	if m != 5 {
		t.Fatalf("mean = %v, want 5", m)
	}
	v, _ := Variance(xs)
	want := 32.0 / 7.0
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("variance = %v, want %v", v, want)
	}
	sd, _ := StdDev(xs)
	if math.Abs(sd-math.Sqrt(want)) > 1e-12 {
		t.Fatalf("stddev = %v", sd)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 101 || s.Min != 0 || s.Max != 100 {
		t.Fatalf("bad summary: %+v", s)
	}
	if s.P50 != 50 || s.P25 != 25 || s.P75 != 75 {
		t.Fatalf("bad quartiles: %+v", s)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ECDF.At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Len() != 4 {
		t.Fatalf("Len = %d", e.Len())
	}
}

func TestECDFPoints(t *testing.T) {
	e, _ := NewECDF([]float64{5, 1, 3, 2, 4})
	pts := e.Points(3)
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].X != 1 || pts[len(pts)-1].X != 5 {
		t.Fatalf("points should span min..max: %+v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y || pts[i].X < pts[i-1].X {
			t.Fatalf("points not monotone: %+v", pts)
		}
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-3) > 1e-12 {
		t.Fatalf("fit = %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
	if got := f.At(10); math.Abs(got-23) > 1e-12 {
		t.Fatalf("At(10) = %v", got)
	}
}

func TestFitLineNoisy(t *testing.T) {
	r := rng.New(77)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i) / 50
		ys[i] = -1.5*xs[i] + 4 + 0.01*r.NormFloat64()
	}
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope+1.5) > 0.01 || math.Abs(f.Intercept-4) > 0.02 {
		t.Fatalf("fit = %+v", f)
	}
	if f.R2 < 0.999 {
		t.Fatalf("R2 = %v too low for tiny noise", f.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point should fail")
	}
	if _, err := FitLine([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("constant x should fail")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	h, err := NewHistogram(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != len(xs) {
		t.Fatalf("histogram lost observations: %d != %d", total, len(xs))
	}
	// The max value must land in the final bucket.
	if h.Counts[4] == 0 {
		t.Fatal("max value fell out of the last bucket")
	}
}

func TestHistogramConstant(t *testing.T) {
	h, err := NewHistogram([]float64{3, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 3 {
		t.Fatalf("constant sample should fill first bucket: %+v", h.Counts)
	}
}

func TestBootstrapMeanCI(t *testing.T) {
	r := rng.New(101)
	data := make([]float64, 400)
	for i := range data {
		data[i] = 10 + r.NormFloat64()
	}
	ci, boot, err := BootstrapCIParallel(len(data), 2000, 1, 0.95, r, func(idx []int) (float64, error) {
		s := 0.0
		for _, i := range idx {
			s += data[i]
		}
		return s / float64(len(idx)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(boot) != 2000 {
		t.Fatalf("boot count %d", len(boot))
	}
	if !ci.Contains(10) {
		t.Fatalf("CI %+v should contain true mean 10", ci)
	}
	if ci.Width() > 0.5 {
		t.Fatalf("CI too wide: %+v", ci)
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	stat := func(idx []int) (float64, error) {
		s := 0.0
		for _, i := range idx {
			s += data[i]
		}
		return s, nil
	}
	a, err := BootstrapParallel(len(data), 50, 1, rng.New(5), stat)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BootstrapParallel(len(data), 50, 1, rng.New(5), stat)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("bootstrap not deterministic under fixed seed")
		}
	}
}

func TestPercentileCIOrdering(t *testing.T) {
	ci, err := PercentileCI([]float64{5, 1, 9, 3, 7}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo > ci.Hi {
		t.Fatalf("inverted CI: %+v", ci)
	}
	if ci.Lo < 1 || ci.Hi > 9 {
		t.Fatalf("CI outside sample range: %+v", ci)
	}
}

func TestPercentileCIErrors(t *testing.T) {
	if _, err := PercentileCI(nil, 0.95); err == nil {
		t.Fatal("empty boot should fail")
	}
	if _, err := PercentileCI([]float64{1}, 1.5); err == nil {
		t.Fatal("bad level should fail")
	}
}

// Property: quantile is monotone in q and bounded by the sample extremes.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n%50) + 2
		r := rng.New(seed)
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		sorted := make([]float64, size)
		copy(sorted, xs)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.05 {
			qq := math.Min(q, 1)
			v := QuantileSorted(sorted, qq)
			if v < prev || v < sorted[0] || v > sorted[size-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ECDF is non-decreasing with range [0,1].
func TestQuickECDFMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		xs := make([]float64, 40)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		e, err := NewECDF(xs)
		if err != nil {
			return false
		}
		prev := -1.0
		for x := -4.0; x <= 4.0; x += 0.25 {
			v := e.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: fitting a perfectly linear relation recovers slope/intercept.
func TestQuickFitRecovers(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		slope := r.NormFloat64() * 5
		intercept := r.NormFloat64() * 5
		xs := make([]float64, 20)
		ys := make([]float64, 20)
		for i := range xs {
			xs[i] = float64(i)
			ys[i] = slope*xs[i] + intercept
		}
		fit, err := FitLine(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(fit.Slope-slope) < 1e-9*(1+math.Abs(slope)) &&
			math.Abs(fit.Intercept-intercept) < 1e-8*(1+math.Abs(intercept))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQuantile(b *testing.B) {
	r := rng.New(1)
	xs := make([]float64, 2390)
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Quantile(xs, 0.9)
	}
}

func BenchmarkBootstrap1k(b *testing.B) {
	data := make([]float64, 2390)
	r := rng.New(2)
	for i := range data {
		data[i] = r.Float64()
	}
	stat := func(idx []int) (float64, error) {
		s := 0.0
		for _, i := range idx {
			s += data[i]
		}
		return s, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = BootstrapParallel(len(data), 1000, 1, rng.New(uint64(i)), stat)
	}
}

// TestECDFMatchesSortedExpansion is the differential contract of the
// counting-compressed ECDF: every query — InverseAt, At, Min/Max, Points —
// must be byte-identical to the sorted-expansion semantics the type had
// before it adopted the §4.2 counting-column representation, across samples
// with heavy ties (the figure workload) and with none.
func TestECDFMatchesSortedExpansion(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(400)
		distinct := 1 + r.Intn(20) // heavy ties: few distinct values
		if trial%3 == 0 {
			distinct = n // no ties
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(distinct)) * 1.375
		}
		e, err := NewECDF(xs)
		if err != nil {
			t.Fatal(err)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)

		if e.Len() != n || e.Min() != sorted[0] || e.Max() != sorted[n-1] {
			t.Fatalf("trial %d: Len/Min/Max mismatch", trial)
		}
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			want := QuantileSorted(sorted, q)
			if got := e.InverseAt(q); got != want {
				t.Fatalf("trial %d: InverseAt(%v) = %v, want %v (not byte-identical)", trial, q, got, want)
			}
		}
		for i := 0; i < 20; i++ {
			x := sorted[r.Intn(n)] + float64(r.Intn(3)-1)*0.6875
			wantRank := sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))
			want := float64(wantRank) / float64(n)
			if got := e.At(x); got != want {
				t.Fatalf("trial %d: At(%v) = %v, want %v", trial, x, got, want)
			}
		}
		for _, pn := range []int{0, 1, 2, 7, n, n + 5} {
			got := e.Points(pn)
			eff := pn
			if eff <= 0 || eff > n {
				eff = n
			}
			if len(got) != eff {
				t.Fatalf("trial %d: Points(%d) returned %d points", trial, pn, len(got))
			}
			for i, p := range got {
				idx := i * (n - 1) / maxInt(eff-1, 1)
				want := Point{X: sorted[idx], Y: float64(idx+1) / float64(n)}
				if p != want {
					t.Fatalf("trial %d: Points(%d)[%d] = %+v, want %+v", trial, pn, i, p, want)
				}
			}
		}
	}
}

// TestSummarizeMatchesQuantileSorted pins Summarize's counting-backed
// quantile fields to the direct QuantileSorted computation.
func TestSummarizeMatchesQuantileSorted(t *testing.T) {
	r := rng.New(11)
	xs := make([]float64, 321)
	for i := range xs {
		xs[i] = float64(r.Intn(40))
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, c := range []struct {
		q   float64
		got float64
	}{
		{0.25, s.P25}, {0.50, s.P50}, {0.75, s.P75},
		{0.90, s.P90}, {0.95, s.P95}, {0.99, s.P99},
	} {
		if want := QuantileSorted(sorted, c.q); c.got != want {
			t.Fatalf("Summarize q=%v: %v, want %v (not byte-identical)", c.q, c.got, want)
		}
	}
}
