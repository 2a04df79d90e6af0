package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestPercentileEdgeCases pins the true nearest-rank convention
// (rank = ceil(n*p), 1-based, clamped) on the boundaries that matter
// for pooled p95 stats: empty and single-sample inputs, and sample
// counts where the p=0.95 rank sits exactly on a rounding boundary.
func TestPercentileEdgeCases(t *testing.T) {
	// ascending(n) = [1, 2, ..., n], so the k-th smallest is k and the
	// expected value states the selected rank directly.
	ascending := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		{"empty", nil, 0.95, 0},
		{"empty zero-length", []float64{}, 0.5, 0},
		{"single sample p95", []float64{3.25}, 0.95, 3.25},
		{"single sample p0", []float64{3.25}, 0, 3.25},
		{"single sample p1", []float64{3.25}, 1, 3.25},
		{"p0 clamps to min", ascending(10), 0, 1},
		{"p1 selects max", ascending(10), 1, 10},
		// n=10: ceil(9.5) = 10, so p95 selects the maximum.
		{"p95 n=10 rounds up to max", ascending(10), 0.95, 10},
		// n=20: ceil(19.0) = 19, so p95 leaves the maximum out.
		{"p95 n=20 leaves headroom", ascending(20), 0.95, 19},
		// n=19: ceil(18.05) = 19 — round-half-up gave 18 here, the defect
		// TestPercentileNearestRankVsRoundHalfUp pins from both sides.
		{"p95 n=19", ascending(19), 0.95, 19},
		{"p95 n=21", ascending(21), 0.95, 20},
		{"p95 n=100", ascending(100), 0.95, 95},
		{"p50 even count", ascending(4), 0.5, 2},
		{"p50 odd count", ascending(5), 0.5, 3},
		{"unsorted input", []float64{9, 1, 5, 7, 3}, 0.5, 5},
	}
	for _, tc := range cases {
		if got := percentile(tc.samples, tc.p); got != tc.want {
			t.Errorf("%s: percentile(n=%d, p=%g) = %g, want %g",
				tc.name, len(tc.samples), tc.p, got, tc.want)
		}
	}
}

// TestPercentileNearestRankVsRoundHalfUp pins the cases where true
// nearest-rank (rank = ceil(n*p)) and the round-half-up rank the
// implementation used to compute (rank = int(n*p + 0.5)) diverge: any
// n*p whose fractional part lies in (0, 0.5) rounds down under the old
// rule, selecting a sample that covers fewer than the requested n*p
// observations. Each case states both ranks so a regression to either
// definition fails with a readable diff.
func TestPercentileNearestRankVsRoundHalfUp(t *testing.T) {
	ascending := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n           int
		p           float64
		nearestRank int // ceil(n*p): what percentile must return
		roundedRank int // int(n*p+0.5): the old, wrong selection
	}{
		{10, 0.91, 10, 9}, // the ISSUE case: ceil(9.1)=10, round(9.1)=9
		{19, 0.95, 19, 18},
		{7, 0.30, 3, 2}, // ceil(2.1)=3, round(2.1)=2
		{25, 0.85, 22, 21},
		{3, 0.50, 2, 2},    // frac = 0.5: both agree
		{20, 0.95, 19, 19}, // integer product: both agree
		{10, 0.95, 10, 10}, // frac = 0.5: both agree
	}
	for _, tc := range cases {
		samples := ascending(tc.n)
		got := percentile(samples, tc.p)
		if got != float64(tc.nearestRank) {
			t.Errorf("percentile(n=%d, p=%g) = %g, want nearest-rank %d (round-half-up would give %d)",
				tc.n, tc.p, got, tc.nearestRank, tc.roundedRank)
		}
		if tc.nearestRank != tc.roundedRank && got == float64(tc.roundedRank) {
			t.Errorf("percentile(n=%d, p=%g) regressed to round-half-up rank %d", tc.n, tc.p, tc.roundedRank)
		}
	}
}

// TestPercentileSortedMatchesPercentile pins the sorted-once fast path
// against the copy-and-sort-per-quantile reference: for every table the
// p50/p95/max read off one sorted copy must be identical to calling
// percentile per quantile, so a caller such as fleetbench can sort once
// for several quantiles.
func TestPercentileSortedMatchesPercentile(t *testing.T) {
	tables := map[string][]float64{
		"empty":      nil,
		"single":     {3.25},
		"sorted":     {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		"reversed":   {10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		"unsorted":   {9, 1, 5, 7, 3},
		"duplicates": {2, 2, 2, 1, 1, 3, 3, 3, 3, 2},
		"negatives":  {-5, 3, -1, 0, 2, -4},
		"latencies":  {0.016, 0.033, 0.017, 0.040, 0.016, 0.250, 0.017, 0.018},
	}
	quantiles := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	for name, samples := range tables {
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		for _, p := range quantiles {
			want := percentile(samples, p)
			if got := PercentileSorted(sorted, p); got != want {
				t.Errorf("%s: PercentileSorted(p=%g) = %g, want %g (percentile reference)",
					name, p, got, want)
			}
		}
		if len(sorted) > 0 {
			if max := sorted[len(sorted)-1]; max != percentile(samples, 1) {
				t.Errorf("%s: sorted max %g != percentile(p=1) %g", name, max, percentile(samples, 1))
			}
		}
	}
}

// TestAggregateScalarFallback: results whose raw Latencies were dropped
// (Runner.DropLatencies) still contribute exact group means — each
// completion carried exactly one latency sample, so mean × completed
// reconstructs the sum — and the group p95 degrades to the worst
// per-scenario p95.
func TestAggregateScalarFallback(t *testing.T) {
	full := Result{
		ID: 0, Class: ClassSteady, Platform: "jetson-nano",
		Released: 4, Completed: 4,
		DurationS: 10, Latencies: []float64{1, 2, 3, 4},
		MeanLatencyS: 2.5, P95LatencyS: 4, MaxLatencyS: 4,
	}
	dropped := full
	dropped.ID = 1
	dropped.Latencies = nil

	// All-scalar group: exact mean, p95 from the per-scenario p95.
	rep := Aggregate(1, []Result{dropped})
	if g := rep.Overall; g.MeanLatencyS != 2.5 || g.P95LatencyS != 4 || g.MaxLatencyS != 4 {
		t.Errorf("scalar-only group stats = mean %g p95 %g max %g, want 2.5/4/4",
			g.MeanLatencyS, g.P95LatencyS, g.MaxLatencyS)
	}

	// Mixed group: the mean must still be the exact pooled mean.
	other := Result{
		ID: 2, Class: ClassSteady, Platform: "jetson-nano",
		Released: 2, Completed: 2,
		DurationS: 10, Latencies: []float64{5, 6},
		MeanLatencyS: 5.5, P95LatencyS: 6, MaxLatencyS: 6,
	}
	rep = Aggregate(1, []Result{dropped, other})
	wantMean := (1.0 + 2 + 3 + 4 + 5 + 6) / 6
	if g := rep.Overall; g.MeanLatencyS != wantMean {
		t.Errorf("mixed group mean = %g, want %g", g.MeanLatencyS, wantMean)
	}
	if g := rep.Overall; g.MaxLatencyS != 6 {
		t.Errorf("mixed group max = %g, want 6", g.MaxLatencyS)
	}

	// A full-sample fleet must be unaffected by the fallback machinery:
	// identical report with and without a no-op scalar path.
	exact := Aggregate(1, []Result{full, other})
	ej, _ := json.Marshal(exact.Overall)
	want := GroupStats{
		Scenarios: 2, Frames: 6, Completed: 6,
		MeanLatencyS: 3.5, P95LatencyS: 6, MaxLatencyS: 6, SimSeconds: 20,
	}
	wj, _ := json.Marshal(want)
	if string(ej) != string(wj) {
		t.Errorf("full-sample aggregate changed:\n got %s\nwant %s", ej, wj)
	}
}

// TestAggregateP95ApproxMarker: a group whose percentile pooled every raw
// sample reports an exact p95 (and, via omitempty, keeps its JSON bytes),
// while any group a sample-free scenario contributed to carries the
// p95Approx marker — including the mixed case where the pooled raw samples
// happened to dominate the scalar fallback, which used to be
// indistinguishable from an exact percentile.
func TestAggregateP95ApproxMarker(t *testing.T) {
	full := Result{
		ID: 0, Class: ClassSteady, Platform: "jetson-nano",
		Released: 4, Completed: 4, DurationS: 10,
		Latencies:    []float64{1, 2, 3, 9},
		MeanLatencyS: 3.75, P95LatencyS: 9, MaxLatencyS: 9,
	}
	dropped := Result{
		ID: 1, Class: ClassSteady, Platform: "jetson-nano",
		Released: 2, Completed: 2, DurationS: 10,
		MeanLatencyS: 1.5, P95LatencyS: 2, MaxLatencyS: 2,
	}

	exact := Aggregate(1, []Result{full})
	if exact.Overall.P95Approx {
		t.Error("full-sample group marked approximate")
	}
	if raw, err := json.Marshal(exact.Overall); err != nil {
		t.Fatal(err)
	} else if strings.Contains(string(raw), "p95Approx") {
		t.Errorf("exact group JSON leaks the marker: %s", raw)
	}

	// Mixed group where raw samples win the p95 anyway: still approximate.
	mixed := Aggregate(1, []Result{full, dropped})
	if g := mixed.Overall; !g.P95Approx || g.P95LatencyS != 9 {
		t.Errorf("mixed group p95/approx = %g/%v, want 9/true", g.P95LatencyS, g.P95Approx)
	}
	if raw, err := json.Marshal(mixed.Overall); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(string(raw), `"p95Approx":true`) {
		t.Errorf("mixed group JSON lacks the marker: %s", raw)
	}

	// All-scalar group: the p95 is the worst per-scenario p95, marked.
	scalar := Aggregate(1, []Result{dropped})
	if g := scalar.Overall; !g.P95Approx || g.P95LatencyS != 2 {
		t.Errorf("scalar group p95/approx = %g/%v, want 2/true", g.P95LatencyS, g.P95Approx)
	}
}

// TestAggregateRegret pins the per-policy regret computation on a
// hand-built two-workload sweep where the oracle is obvious: policy "a"
// wins workload 1 on both metrics, policy "b" wins workload 2 on miss rate
// while "a" keeps the energy oracle, so "b" carries energy regret even on
// the workload it wins.
func TestAggregateRegret(t *testing.T) {
	mk := func(id int, seed uint64, name, pol string, missed int, energy float64) Result {
		return Result{
			ID: id, Seed: seed, Name: name, Class: ClassSteady,
			Platform: "jetson-nano", Policy: pol,
			Released: 10, Completed: 10 - missed, Missed: missed,
			DurationS: 10, EnergyMJ: energy,
		}
	}
	results := []Result{
		mk(0, 11, "wl1", "a", 0, 100), // oracle of wl1 outright
		mk(1, 11, "wl1", "b", 2, 150),
		mk(2, 22, "wl2", "a", 3, 200), // energy oracle of wl2
		mk(3, 22, "wl2", "b", 1, 260), // miss-rate oracle (and combined) of wl2
	}
	rep := Aggregate(1, results)
	if rep.Regret == nil {
		t.Fatal("sweep report missing regret")
	}
	a, b := rep.Regret["a"], rep.Regret["b"]
	if a.Workloads != 2 || b.Workloads != 2 {
		t.Fatalf("workloads = %d/%d, want 2/2", a.Workloads, b.Workloads)
	}
	if a.OracleWins != 1 || b.OracleWins != 1 {
		t.Errorf("oracle wins = %d/%d, want 1/1 (a takes wl1, b takes wl2 on miss rate)", a.OracleWins, b.OracleWins)
	}
	approx := func(got, want float64) bool {
		return math.Abs(got-want) < 1e-12
	}
	// a: wl1 regret 0/0; wl2 miss regret 0.3-0.1=0.2, energy regret 0.
	if want := 0.2 / 2; !approx(a.MissRateRegret, want) {
		t.Errorf("a.MissRateRegret = %g, want %g", a.MissRateRegret, want)
	}
	if a.EnergyRegretMJ != 0 {
		t.Errorf("a.EnergyRegretMJ = %g, want 0", a.EnergyRegretMJ)
	}
	// b: wl1 miss regret 0.2, energy regret 50; wl2 miss regret 0, energy
	// regret 60 (the energy oracle on wl2 is a's 200).
	if want := 0.2 / 2; !approx(b.MissRateRegret, want) {
		t.Errorf("b.MissRateRegret = %g, want %g", b.MissRateRegret, want)
	}
	if want := (50.0 + 60.0) / 2; b.EnergyRegretMJ != want {
		t.Errorf("b.EnergyRegretMJ = %g, want %g", b.EnergyRegretMJ, want)
	}

	// An errored run poisons its whole workload: neither policy is
	// charged or credited for it.
	bad := mk(4, 33, "wl3", "a", 0, 1)
	bad.Err = "boom"
	withErr := Aggregate(1, append(results, bad, mk(5, 33, "wl3", "b", 0, 2)))
	if g := withErr.Regret["b"]; g.Workloads != 2 {
		t.Errorf("errored workload leaked into regret: b.Workloads = %d, want 2", g.Workloads)
	}

	// Single-policy fleets carry no regret block at all.
	single := Aggregate(1, []Result{mk(0, 11, "wl1", "a", 0, 100), mk(1, 22, "wl2", "a", 1, 50)})
	if single.Regret != nil || single.ByPolicy != nil {
		t.Errorf("single-policy report grew regret/byPolicy: %+v / %+v", single.Regret, single.ByPolicy)
	}
}

// TestAggregateAllErrored: a group made entirely of errored scenarios has
// Frames == 0 and SimSeconds == 0; no rate may divide through to NaN or
// Inf (json.Marshal would also reject those, breaking every report
// writer downstream).
func TestAggregateAllErrored(t *testing.T) {
	results := []Result{
		{ID: 0, Class: ClassSteady, Platform: "odroid-xu3", Err: "unknown platform"},
		{ID: 1, Class: ClassSteady, Platform: "odroid-xu3", Err: "boom"},
	}
	rep := Aggregate(3, results)
	for name, g := range map[string]GroupStats{
		"overall":  rep.Overall,
		"platform": rep.ByPlatform["odroid-xu3"],
		"class":    rep.ByClass[ClassSteady],
	} {
		if g.Scenarios != 2 || g.Errors != 2 {
			t.Errorf("%s: scenarios/errors = %d/%d, want 2/2", name, g.Scenarios, g.Errors)
		}
		if g.Frames != 0 {
			t.Errorf("%s: frames = %d, want 0", name, g.Frames)
		}
		for field, v := range map[string]float64{
			"MissRate": g.MissRate, "MeanLatencyS": g.MeanLatencyS,
			"P95LatencyS": g.P95LatencyS, "MaxLatencyS": g.MaxLatencyS,
			"ThermalRate": g.ThermalRate,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %g with zero frames", name, field, v)
			}
			if v != 0 {
				t.Errorf("%s: %s = %g, want 0 for an all-errored group", name, field, v)
			}
		}
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("all-errored report not JSON-encodable: %v", err)
	}
}

// TestAggregateMixedErrors: errored scenarios count toward Scenarios and
// Errors but contribute nothing to frame, energy or latency stats.
func TestAggregateMixedErrors(t *testing.T) {
	ok := Result{
		ID: 0, Class: ClassBursty, Platform: "jetson-nano",
		Released: 10, Completed: 8, Missed: 2,
		DurationS: 20, EnergyMJ: 500, OverThrottleS: 1,
		MaxLatencyS: 3, Latencies: []float64{1, 3},
	}
	bad := Result{ID: 1, Class: ClassBursty, Platform: "jetson-nano", Err: "boom",
		// Junk that must be ignored because the scenario errored.
		Released: 99, EnergyMJ: 9999, Latencies: []float64{7}}
	rep := Aggregate(1, []Result{ok, bad})
	g := rep.Overall
	if g.Scenarios != 2 || g.Errors != 1 {
		t.Fatalf("scenarios/errors = %d/%d, want 2/1", g.Scenarios, g.Errors)
	}
	if g.Frames != 10 || g.EnergyMJ != 500 {
		t.Errorf("errored scenario leaked into stats: frames %d, energy %g", g.Frames, g.EnergyMJ)
	}
	if g.MissRate != 0.2 {
		t.Errorf("miss rate = %g, want 0.2", g.MissRate)
	}
	if g.MeanLatencyS != 2 || g.MaxLatencyS != 3 {
		t.Errorf("latency stats = mean %g max %g, want 2/3", g.MeanLatencyS, g.MaxLatencyS)
	}
}

// TestSelectKth: selection returns exactly what a full ascending sort puts
// at every index k, on random, all-equal, two-valued, sorted and
// reverse-sorted inputs and every n up to 5 — and so does the sort
// fallback once the depth budget is spent.
func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	inputs := map[string][]float64{}
	for n := 1; n <= 5; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.IntN(3))
		}
		inputs[fmt.Sprintf("n=%d", n)] = xs
	}
	random := make([]float64, 1000)
	twoValued := make([]float64, 777)
	for i := range random {
		random[i] = rng.ExpFloat64()
	}
	for i := range twoValued {
		twoValued[i] = float64(rng.IntN(2)) * 0.25
	}
	sorted := slices.Clone(random)
	slices.Sort(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	inputs["random"] = random
	inputs["all-equal"] = slices.Repeat([]float64{0.125}, 513)
	inputs["two-valued"] = twoValued
	inputs["sorted"] = sorted
	inputs["reverse-sorted"] = reversed

	for name, xs := range inputs {
		want := slices.Clone(xs)
		slices.Sort(want)
		for _, budget := range []int{-1, 0, 1, 3} {
			for k := range xs {
				work := slices.Clone(xs)
				var got float64
				if budget < 0 {
					got = selectKth(work, k)
				} else {
					got = introselect(work, k, budget)
				}
				if got != want[k] {
					t.Fatalf("%s (budget %d): k=%d selected %v, sort gives %v", name, budget, k, got, want[k])
				}
				slices.Sort(work)
				if !slices.Equal(work, want) {
					t.Fatalf("%s (budget %d): k=%d lost or changed samples", name, budget, k)
				}
			}
		}
	}
}

// TestAggregateKeepsLatencies: Aggregate pools samples by reference and
// selects on a scratch copy, so every input Result.Latencies keeps its
// content and completion order.
func TestAggregateKeepsLatencies(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{Seed: 31, Policies: []string{"heuristic", "minenergy"}})
	if err != nil {
		t.Fatal(err)
	}
	results := (&Runner{Workers: 2}).Run(gen.Generate(gen.RunCount(6)))
	// A platform of its own: a group pooling exactly one result.
	results = append(results, Result{ID: len(results), Platform: "solo", Class: ClassSteady,
		Policy: "heuristic", Completed: 4, Latencies: []float64{0.4, 0.1, 0.3, 0.2}})
	before := make([][]float64, len(results))
	for i, r := range results {
		before[i] = slices.Clone(r.Latencies)
	}
	rep := Aggregate(31, results)
	if rep.Overall.P95LatencyS == 0 || len(rep.ByPolicy) != 2 {
		t.Fatalf("aggregate pooled no samples: overall p95 %v, %d policies", rep.Overall.P95LatencyS, len(rep.ByPolicy))
	}
	for i, r := range results {
		if !slices.Equal(r.Latencies, before[i]) {
			t.Errorf("result %d: Aggregate reordered or changed its latencies", r.ID)
		}
	}
}
