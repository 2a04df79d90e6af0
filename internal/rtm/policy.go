package rtm

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// This file is the pluggable policy layer extracted from the runtime
// manager. The paper frames trade-off management — which dynamic-DNN
// level, DVFS point and core allocation each application gets — as a
// *policy* question with interchangeable strategies (heuristic or
// learned). A Policy is exactly that strategy: a pure planning function
// over a read-only View of the system. The Manager remains the actuation
// shell: it builds the View, asks the Policy for a plan, and sets the
// engine's knobs to realise it.

// View is the read-only snapshot a policy plans over. The runtime state
// in it — Apps, Clusters, Reqs — is value copies rebuilt per plan, so a
// policy that scribbles on them corrupts only its own input, never
// manager or engine state. Platform (and the profile level tables inside
// each AppInfo) is shared static configuration: neither the engine nor
// the manager ever mutates it, and policies must honour the same
// read-only contract — it is not defensively copied.
type View struct {
	// NowS is the simulation clock at planning time.
	NowS float64
	// AmbientC / TempC / ThrottleC describe the thermal situation.
	AmbientC  float64
	TempC     float64
	ThrottleC float64
	// MarginC is the planning margin below the throttle point the manager
	// currently demands (base margin plus accumulated thermal pressure).
	MarginC float64
	// DynBudgetMW is the sustained platform power budget, in mW, derived
	// from the RC thermal model at ThrottleC − MarginC. It includes static
	// (idle) power: planners must subtract idle and co-runner power before
	// spending it on DNN placements (newPlanState does this).
	DynBudgetMW float64
	// Platform is the hardware description (clusters, OPP ladders, thermal
	// parameters). Treat as read-only.
	Platform *hw.Platform
	// Apps is the observable state of every app, in engine creation order.
	Apps []sim.AppInfo
	// Clusters is the observable state of every cluster, in platform order.
	Clusters []sim.ClusterInfo
	// Reqs holds the resolved requirement of every DNN app (defaults
	// applied: a zero MaxLatencyS becomes the app's frame period).
	Reqs map[string]Requirement
}

// Req returns the requirement for an app with defaults applied, tolerating
// hand-built Views whose Reqs map is sparse or unresolved.
func (v *View) Req(a sim.AppInfo) Requirement {
	r := v.Reqs[a.Name]
	if r.MaxLatencyS == 0 {
		r.MaxLatencyS = a.PeriodS
	}
	return r
}

// ClusterOnline reports whether the cluster at platform index ci is
// available. Manager-built views carry one ClusterInfo per platform
// cluster in order; sparse hand-built views (fewer Clusters than platform
// clusters) default to online, matching the pre-fault behaviour.
func (v *View) ClusterOnline(ci int) bool {
	if ci < 0 || ci >= len(v.Clusters) {
		return true
	}
	return v.Clusters[ci].Online
}

// Clone deep-copies the view's slices and map (one level: profile level
// tables inside AppInfo are shared, as is the Platform description). It is
// what Manager.LastView returns, so callers can inspect the last planning
// input without aliasing manager state.
func (v View) Clone() View {
	var c View
	v.CloneInto(&c)
	return c
}

// CloneInto rebuilds dst as a clone of v — the same one-level deep copy as
// Clone, but into dst's existing slices and map so a caller replanning
// every tick (the Manager) clones without allocating once the buffers have
// grown to the working-set size.
//
//detlint:hotpath
func (v View) CloneInto(dst *View) {
	apps, clusters, reqs := dst.Apps[:0], dst.Clusters[:0], dst.Reqs
	*dst = v
	dst.Apps = append(apps, v.Apps...)
	dst.Clusters = append(clusters, v.Clusters...)
	if reqs == nil {
		reqs = make(map[string]Requirement, len(v.Reqs))
	}
	clear(reqs)
	//detlint:ordered map-to-map copy; per-key writes are order-independent
	for k, r := range v.Reqs {
		reqs[k] = r
	}
	dst.Reqs = reqs
}

// Policy maps a View to one Assignment per running DNN app. Plan must be
// deterministic (same View, same plan) and must not retain or mutate the
// View; the fleet harness depends on both to keep sweeps reproducible.
// (The Manager hands Plan a view whose buffers it reuses across replans —
// a retained View would observe the next tick's state, which is exactly
// why retention is outside the contract.)
type Policy interface {
	// Name is the registry key the policy is addressed by (e.g. in
	// fleetsim -policies); stable and lowercase by convention.
	Name() string
	// Plan computes assignments for every running DNN in the view.
	Plan(v View) []Assignment
}

// DefaultPolicy is the policy NewManager installs and the name the empty
// string resolves to: the paper's heuristic manager.
const DefaultPolicy = "heuristic"

var (
	policyMu        sync.RWMutex
	policyFactories = map[string]func() Policy{}
	paramFactories  = map[string]func(arg string) (Policy, error){}
)

// Register adds a policy factory under its name. New strategies are one
// file: implement Policy, Register it from an init function, and every
// layer above — manager, fleet sweeps, fleetsim -policies, the facade —
// can address it by name. Register panics on a duplicate or empty name
// (a programming error, caught at init time).
func Register(name string, factory func() Policy) {
	if name == "" || factory == nil {
		panic("rtm: Register requires a name and a factory")
	}
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, dup := policyFactories[name]; dup {
		panic(fmt.Sprintf("rtm: policy %q registered twice", name))
	}
	policyFactories[name] = factory
}

// RegisterParam adds a parameterised policy family under a prefix: the
// registry name "<prefix>:<arg>" resolves by calling factory(arg). This is
// how strategies with per-instance configuration — a trained table file,
// say — ride the same name-based plumbing as the built-ins: fleet sweeps,
// shard validation and the CLIs all address policies by string, and a
// parameterised name stays a plain string. The factory may fail (a missing
// or corrupt file), which is why it errors where Register's factories
// cannot. Panics on a duplicate or empty prefix, or one containing the
// ':' separator.
func RegisterParam(prefix string, factory func(arg string) (Policy, error)) {
	if prefix == "" || factory == nil {
		panic("rtm: RegisterParam requires a prefix and a factory")
	}
	if strings.Contains(prefix, ":") {
		panic(fmt.Sprintf("rtm: RegisterParam prefix %q must not contain ':'", prefix))
	}
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, dup := paramFactories[prefix]; dup {
		panic(fmt.Sprintf("rtm: parameterised policy %q registered twice", prefix))
	}
	paramFactories[prefix] = factory
}

// Policies lists all registered policy names, sorted.
func Policies() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	out := make([]string, 0, len(policyFactories))
	for name := range policyFactories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewPolicy instantiates a registered policy by name; "" resolves to
// DefaultPolicy, and "<prefix>:<arg>" resolves through the parameterised
// families added with RegisterParam (e.g. "learned:table.json" loads a
// trained selection table). Unknown names error with the list of valid
// ones, so a typo in a sweep spec fails loudly before any simulation runs.
func NewPolicy(name string) (Policy, error) {
	if name == "" {
		name = DefaultPolicy
	}
	policyMu.RLock()
	factory := policyFactories[name]
	var param func(string) (Policy, error)
	if factory == nil {
		if prefix, arg, ok := strings.Cut(name, ":"); ok {
			if param = paramFactories[prefix]; param != nil {
				policyMu.RUnlock()
				p, err := param(arg)
				if err != nil {
					return nil, fmt.Errorf("rtm: policy %q: %w", name, err)
				}
				return p, nil
			}
		}
	}
	policyMu.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("rtm: unknown policy %q (registered: %v; parameterised: %v)",
			name, Policies(), ParamPolicies())
	}
	return factory(), nil
}

// ParamPolicies lists the registered parameterised-policy prefixes in
// their addressable "<prefix>:<arg>" form, sorted.
func ParamPolicies() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	out := make([]string, 0, len(paramFactories))
	//detlint:ordered prefixes are decorated while collected, then sorted below
	for prefix := range paramFactories {
		out = append(out, prefix+":<arg>")
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("heuristic", func() Policy { return heuristicPolicy{} })
	Register("maxaccuracy", func() Policy { return maxAccuracyPolicy{} })
	Register("minenergy", func() Policy { return minEnergyPolicy{} })
}

// ---- Shared planning machinery ----
//
// The pieces below are the constraint bookkeeping every greedy policy
// shares: the resource ledger, candidate evaluation, OPP/core option
// enumeration, and commitment. Policies differ in which candidates they
// enumerate and how they rank them.
//
// Everything here plans out of a planScratch: the ledger and every
// intermediate slice reset in place instead of reallocating, because a
// fleet sweep replans thousands of times per simulated scenario and the
// per-plan maps this replaced were the planning hot path's dominant
// allocation.

// candidate is one evaluated operating point during planning.
type candidate struct {
	placement sim.Placement
	ci        int // platform cluster index of placement.Cluster
	level     int
	oppIdx    int
	latencyS  float64
	duty      float64
	dynPowMW  float64
	accuracy  float64
	memBytes  int64
}

// planState is the resource ledger consumed while assigning apps. Entries
// are indexed by platform cluster position (see clusterIndex), not name:
// index-addressed slices reset in place where name-keyed maps reallocated
// per plan.
type planState struct {
	clusters  []*hw.Cluster // v.Platform.Clusters, the index space
	online    []bool
	freeCores []int
	freeDuty  []float64
	freeMem   []int64
	oppNeed   []int
	dynBudget float64 // remaining average dynamic power, mW
}

// clusterIndex maps a cluster name to its platform position (-1 when
// unknown). Platforms carry a handful of clusters, so a linear scan beats
// any allocation-bearing index structure.
func (st *planState) clusterIndex(name string) int {
	for i, cl := range st.clusters {
		if cl.Name == name {
			return i
		}
	}
	return -1
}

// reuse returns s with length n and zeroed contents, keeping the backing
// array whenever it is large enough.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// newPlanState builds a fresh ledger from a view (tests and one-shot
// callers); policies running hot go through planState.init on a scratch
// ledger instead.
func newPlanState(v *View) *planState {
	st := &planState{}
	st.init(v)
	return st
}

// init (re)builds the ledger from a view: the thermal power budget less
// every cluster's idle power and the (uncontrollable) power of non-DNN
// co-runners, plus free cores, accelerator duty and accelerator memory.
// Iteration follows platform cluster order, not map order: the budget is a
// float accumulation, and a run-dependent summation order could flip a
// marginal feasibility decision between identical runs.
//
//detlint:hotpath
func (st *planState) init(v *View) {
	cls := v.Platform.Clusters
	st.clusters = cls
	st.online = reuse(st.online, len(cls))
	st.freeCores = reuse(st.freeCores, len(cls))
	st.freeDuty = reuse(st.freeDuty, len(cls))
	st.freeMem = reuse(st.freeMem, len(cls))
	st.oppNeed = reuse(st.oppNeed, len(cls))
	st.dynBudget = v.DynBudgetMW
	for ci, cl := range cls {
		st.online[ci] = v.ClusterOnline(ci)
		if !st.online[ci] {
			// Dead silicon: no allocatable resources (coreOptions then
			// returns empty for every policy) and no idle draw to charge.
			continue
		}
		st.dynBudget -= cl.IdlePowerMW()
		if cl.Type.IsAccelerator() {
			st.freeDuty[ci] = 1
			st.freeMem[ci] = cl.MemBytes
		} else {
			st.freeCores[ci] = cl.Cores
		}
	}
	// Non-DNN apps consume resources and power at the OPP they will be
	// pinned to: max for render clusters, min otherwise. Per cluster, apps
	// are visited in view (engine creation) order — the same accumulation
	// order as the map-grouped implementation this replaces.
	for ci, cl := range cls {
		if !st.online[ci] {
			continue // co-runners on a dead cluster run nothing and draw nothing
		}
		resident, render := false, false
		for i := range v.Apps {
			a := &v.Apps[i]
			if !a.Running || a.Kind == sim.KindDNN || a.Placement.Cluster != cl.Name {
				continue
			}
			resident = true
			if a.Kind == sim.KindRender {
				render = true
			}
		}
		if !resident {
			continue
		}
		opp := cl.MinOPP()
		if render {
			opp = cl.MaxOPP()
			st.oppNeed[ci] = len(cl.OPPs) - 1
		}
		for i := range v.Apps {
			a := &v.Apps[i]
			if !a.Running || a.Kind == sim.KindDNN || a.Placement.Cluster != cl.Name {
				continue
			}
			dyn := dynPowerMW(cl, opp, clApplyCores(cl, a.Placement.Cores), a.Util)
			st.dynBudget -= dyn
			if cl.Type.IsAccelerator() {
				st.freeDuty[ci] -= a.Util
			} else {
				st.freeCores[ci] -= a.Placement.Cores
			}
		}
	}
	if st.dynBudget < 0 {
		st.dynBudget = 0
	}
}

// planScratch owns every buffer one planning pass needs — the ledger, the
// sorted DNN worklist, option/level enumeration buffers and the plan under
// construction. The Manager keeps one per instance so its replan loop is
// allocation-free; the public Plan entry points borrow one from a pool.
type planScratch struct {
	st     planState
	dnns   []sim.AppInfo
	opts   []int
	levels []int
	plan   []Assignment
}

// scratchPool backs the public Plan entry points, which must hand back a
// caller-owned slice and so cannot expose pooled memory directly.
var scratchPool = sync.Pool{New: func() any { return new(planScratch) }}

// scratchPlanner is the package-internal seam the Manager prefers: a
// policy that can plan into caller-owned scratch buffers, returning a
// slice that aliases sc.plan. All built-in policies implement it; external
// policies fall back to the public Plan contract.
type scratchPlanner interface {
	planInto(v *View, sc *planScratch) []Assignment
}

// assignFunc is one policy's per-app planning step over the shared ledger.
type assignFunc func(v *View, st *planState, sc *planScratch, a sim.AppInfo) Assignment

// planWith runs a policy's assign step over the plannable DNNs in priority
// order, building the plan in sc.plan. The returned slice aliases sc.plan
// — callers that outlive the scratch must copy.
//
//detlint:hotpath
func planWith(v *View, sc *planScratch, assign assignFunc) []Assignment {
	sc.st.init(v)
	plan := sc.plan[:0]
	for _, a := range sc.plannableDNNs(v) {
		plan = append(plan, assign(v, &sc.st, sc, a))
	}
	sc.plan = plan
	return plan
}

// pooledPlan is the public-Plan path: borrow a scratch, plan, publish a
// caller-owned copy.
func pooledPlan(v *View, assign assignFunc) []Assignment {
	sc := scratchPool.Get().(*planScratch)
	defer scratchPool.Put(sc)
	return append([]Assignment(nil), planWith(v, sc, assign)...)
}

// plannableDNNs rebuilds sc.dnns with the running DNN apps in planning
// order: priority descending, then latency budget ascending, stable over
// engine order. The insertion sort is stable and comparison-compatible
// with the sort.SliceStable it replaces, so the order — and therefore
// every downstream planning decision — is identical.
//
//detlint:hotpath
func (sc *planScratch) plannableDNNs(v *View) []sim.AppInfo {
	dnns := sc.dnns[:0]
	for _, a := range v.Apps {
		if a.Running && a.Kind == sim.KindDNN {
			dnns = append(dnns, a)
		}
	}
	for i := 1; i < len(dnns); i++ {
		for j := i; j > 0 && dnnBefore(v, dnns[j], dnns[j-1]); j-- {
			dnns[j], dnns[j-1] = dnns[j-1], dnns[j]
		}
	}
	sc.dnns = dnns
	return dnns
}

// dnnBefore is the planning order: priority descending, then latency
// budget ascending.
func dnnBefore(v *View, a, b sim.AppInfo) bool {
	ra, rb := v.Req(a), v.Req(b)
	if ra.Priority != rb.Priority {
		return ra.Priority > rb.Priority
	}
	return ra.MaxLatencyS < rb.MaxLatencyS
}

func clApplyCores(cl *hw.Cluster, cores int) int {
	if cl.Type.IsAccelerator() {
		return cl.Cores
	}
	return cores
}

// dynPowerMW is the average dynamic (above-static) power of n cores at the
// given utilisation.
func dynPowerMW(cl *hw.Cluster, opp hw.OPP, n int, util float64) float64 {
	return cl.BusyPowerMW(opp, n, util) - cl.IdlePowerMW()
}

// coreOptions lists allocatable core counts on cluster index ci given the
// ledger, largest first (so a tie on the objective keeps the bigger
// allocation). Options are appended into buf, which is reset and reused —
// callers pass a scratch buffer and must consume the result before the
// next call with the same buffer.
//
//detlint:hotpath
func coreOptions(cl *hw.Cluster, st *planState, ci int, buf []int) []int {
	buf = buf[:0]
	if cl.Type.IsAccelerator() {
		if st.freeDuty[ci] <= 0 {
			return buf
		}
		return append(buf, cl.Cores)
	}
	free := st.freeCores[ci]
	for n := free; n >= 1; n-- {
		buf = append(buf, n)
	}
	return buf
}

// chooseOPP returns the lowest OPP index >= floor (the cluster's committed
// DVFS floor) meeting the latency budget — pacing beats race-to-idle under
// a CV²f power model. ok is false when even the maximum OPP misses.
func chooseOPP(cl *hw.Cluster, floor, cores int, macs int64, budgetS float64) (int, bool) {
	for i := floor; i < len(cl.OPPs); i++ {
		if perf.InferenceLatencyS(cl, cl.OPPs[i], cores, macs) <= budgetS {
			return i, true
		}
	}
	return 0, false
}

// evalCandidate checks one (cluster, cores, level, OPP) point against the
// ledger — accelerator memory, latency budget (skipped in best-effort
// mode), accelerator duty and the power budget — and prices it. ci is the
// cluster's ledger index. ok is false when any constraint fails.
func evalCandidate(st *planState, a sim.AppInfo, req Requirement, cl *hw.Cluster, ci, cores, level, oppIdx int, bestEffort bool) (candidate, bool) {
	spec := a.Profile.Level(level)
	var memNeed int64
	if cl.MemBytes > 0 && a.ModelBytes > 0 {
		memNeed = a.ModelBytes * int64(level) / int64(a.Profile.MaxLevel())
		if memNeed > st.freeMem[ci] {
			return candidate{}, false
		}
	}
	opp := cl.OPPs[oppIdx]
	lat := perf.InferenceLatencyS(cl, opp, cores, spec.MACs)
	duty := lat / a.PeriodS
	if duty > 1 {
		duty = 1
	}
	if !bestEffort {
		if lat > req.MaxLatencyS {
			return candidate{}, false
		}
		if cl.Type.IsAccelerator() && duty > st.freeDuty[ci]+1e-9 {
			return candidate{}, false
		}
	}
	dyn := dynPowerMW(cl, opp, cores, 1) * duty
	if dyn > st.dynBudget+1e-9 {
		return candidate{}, false
	}
	return candidate{
		placement: sim.Placement{Cluster: cl.Name, Cores: cores},
		ci:        ci,
		level:     level,
		oppIdx:    oppIdx,
		latencyS:  lat,
		duty:      duty,
		dynPowMW:  dyn,
		accuracy:  spec.Accuracy,
		memBytes:  memNeed,
	}, true
}

// commit consumes ledger resources for the chosen candidate and converts
// it into an Assignment.
//
//detlint:hotpath
func (st *planState) commit(a sim.AppInfo, c candidate, pass int) Assignment {
	cl := st.clusters[c.ci]
	if c.duty > 0 && cl.Type.IsAccelerator() {
		st.freeDuty[c.ci] -= c.duty
	}
	if !cl.Type.IsAccelerator() {
		st.freeCores[c.ci] -= c.placement.Cores
	}
	if c.memBytes > 0 {
		st.freeMem[c.ci] -= c.memBytes
	}
	st.dynBudget -= c.dynPowMW
	if st.dynBudget < 0 {
		st.dynBudget = 0
	}
	if c.oppIdx > st.oppNeed[c.ci] {
		st.oppNeed[c.ci] = c.oppIdx
	}
	return Assignment{
		App:       a.Name,
		Placement: c.placement,
		Level:     c.level,
		OPPIndex:  c.oppIdx,
		LatencyS:  c.latencyS,
		DynPowMW:  c.dynPowMW,
		Accuracy:  c.accuracy,
		Pass:      pass,
	}
}

// park is the nothing-fits fallback every policy shares: stay at the
// current placement, minimum level, minimum OPP, and let best effort ride.
// When the current placement is on an offline cluster, staying put would
// leave the app unhosted, so park diverts to the degraded pin: lowest
// level on the least-loaded online cluster that can still take it. Only
// when no online cluster can host the app does it stay on the dead one —
// the retry/repair triggers in the Manager pick it up from there.
func park(v *View, st *planState, a sim.AppInfo) Assignment {
	if ci := st.clusterIndex(a.Placement.Cluster); ci >= 0 && !st.online[ci] {
		if alt := degradedPin(st, a); alt >= 0 {
			cl := st.clusters[alt]
			cores := clApplyCores(cl, 1)
			c := candidate{
				placement: sim.Placement{Cluster: cl.Name, Cores: cores},
				ci:        alt,
				level:     1,
				oppIdx:    0,
				latencyS:  perf.InferenceLatencyS(cl, cl.MinOPP(), cores, a.Profile.Level(1).MACs),
				accuracy:  a.Profile.Level(1).Accuracy,
			}
			if cl.MemBytes > 0 && a.ModelBytes > 0 {
				c.memBytes = a.ModelBytes / int64(a.Profile.MaxLevel())
			}
			return st.commit(a, c, 3)
		}
	}
	cl := v.Platform.Cluster(a.Placement.Cluster)
	c := candidate{
		placement: a.Placement,
		ci:        st.clusterIndex(a.Placement.Cluster),
		level:     1,
		oppIdx:    0,
		latencyS:  perf.InferenceLatencyS(cl, cl.MinOPP(), clApplyCores(cl, a.Placement.Cores), a.Profile.Level(1).MACs),
		accuracy:  a.Profile.Level(1).Accuracy,
	}
	return st.commit(a, c, 3)
}

// degradedPin picks the ledger index of the least-loaded online cluster
// able to host a at its lowest level, or -1 when none can. CPUs must have
// a free core and memory-capped accelerators must fit the level-1 model —
// both hard actuation constraints — but accelerator duty may oversubscribe:
// in degraded mode a slow frame beats no frame. Load is the consumed
// fraction of the ledger; ties resolve in platform order.
func degradedPin(st *planState, a sim.AppInfo) int {
	best, bestLoad := -1, 0.0
	for ci, cl := range st.clusters {
		if !st.online[ci] {
			continue
		}
		var load float64
		if cl.Type.IsAccelerator() {
			if cl.MemBytes > 0 && a.ModelBytes > 0 &&
				a.ModelBytes/int64(a.Profile.MaxLevel()) > st.freeMem[ci] {
				continue
			}
			load = 1 - st.freeDuty[ci]
		} else {
			if st.freeCores[ci] < 1 {
				continue
			}
			load = 1 - float64(st.freeCores[ci])/float64(cl.Cores)
		}
		if best == -1 || load < bestLoad {
			best, bestLoad = ci, load
		}
	}
	return best
}

// descendingLevels fills buf with [MaxLevel .. 1] for a profile, reusing
// the buffer's backing array.
func descendingLevels(a sim.AppInfo, buf []int) []int {
	buf = buf[:0]
	for l := a.Profile.MaxLevel(); l >= 1; l-- {
		buf = append(buf, l)
	}
	return buf
}

// minLevelMeeting returns the lowest level whose accuracy meets the floor
// (the highest level when none does).
func minLevelMeeting(a sim.AppInfo, minAccuracy float64) int {
	minLevel := 1
	for l := 1; l <= a.Profile.MaxLevel(); l++ {
		minLevel = l
		if a.Profile.Level(l).Accuracy >= minAccuracy {
			break
		}
	}
	return minLevel
}
