package fleet

import (
	"reflect"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// TestSharedCatalogReadOnly: every generator, run and worker reads the
// one shared catalog, so none of them may write to it. After generating
// and running a sweep over every class (faults included) on four
// workers, the shared platforms must still equal a freshly built
// catalog, unexported scaling tables included. Under -race this also
// exercises concurrent reads of the shared platforms.
func TestSharedCatalogReadOnly(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{
		Seed:     5,
		Classes:  AllClasses(),
		Policies: []string{"heuristic", "maxaccuracy", "minenergy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	scens := gen.Generate(72)
	seen := map[Class]bool{}
	for _, s := range scens {
		seen[s.Class] = true
	}
	for _, c := range AllClasses() {
		if !seen[c] {
			t.Fatalf("sweep generated no %s scenario", c)
		}
	}
	for _, r := range (&Runner{Workers: 4}).Run(scens) {
		if r.Err != "" {
			t.Fatalf("scenario %s: %s", r.Name, r.Err)
		}
	}
	if !reflect.DeepEqual(catalog(), hw.Catalog()) {
		t.Fatal("a fleet run wrote to the shared platform catalog")
	}
}

// steadyStateRunAllocs is the measured per-run allocation count of a
// reused Runner on TestRunnerRunAllocs's scenario.
const steadyStateRunAllocs = 34

// TestRunnerRunAllocs pins a reused Runner's steady-state allocations
// per scenario run on one fixed odroid scenario. Fixed per-Run costs
// (the worker's engine, the results slice) cancel out of the difference
// between a 16-run and an 8-run batch. A failure means the fleet run path
// regained per-run allocations, such as rebuilding the platform catalog;
// find them with a -memprofile of this test.
func TestRunnerRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so per-run allocations vary")
	}
	gen, err := NewGenerator(GeneratorConfig{Seed: 1, Platforms: []string{"odroid-xu3"}, Classes: []Class{ClassSteady}})
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Generate(1)[0]
	r := &Runner{Workers: 1}
	batchAllocs := func(k int) float64 {
		batch := make([]Scenario, k)
		for i := range batch {
			batch[i] = s
		}
		return testing.AllocsPerRun(10, func() { r.Run(batch) })
	}
	const k = 8
	perRun := (batchAllocs(2*k) - batchAllocs(k)) / k
	if perRun > steadyStateRunAllocs {
		t.Fatalf("a reused Runner costs %.2f allocs per run, budget is %d", perRun, steadyStateRunAllocs)
	}
}
