package rtm

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/emlrtm/emlrtm/internal/sim"
)

// This file is the learned side of the paper's "heuristic vs. learned
// managers" framing: a tabular policy that discretises the planning View
// into a small state and, per state, delegates the whole Plan to whichever
// registered base policy training found cheapest there — the adaptive
// model-selection shape of Marco et al., with base policies as the
// pre-built strategies. The table is trained offline (internal/fleet's
// trainer replays seeded fleet scenarios and scores each state/arm pair on
// a miss-rate + energy reward), serialised to JSON, and loaded at runtime
// through the parameterised registry name "learned:<table.json>" — so a
// trained policy threads through fleet sweeps, shard validation and the
// fleetsim CLI exactly like a built-in.

// LearnedTableVersion is the current table-file format; ReadLearnedTable
// rejects other versions instead of silently misreading arm indices.
const LearnedTableVersion = 1

// LearnedParamPrefix is the parameterised registry prefix a trained table
// is addressed by: "learned:<path.json>".
const LearnedParamPrefix = "learned"

// LearnedState is one discretised state's training record: per-arm visit
// counts and mean costs (index-aligned with LearnedTable.Arms) plus the
// greedy choice Finalise derived from them. Keeping the full per-arm
// statistics in the file — not just the argmin — is what makes a trained
// table inspectable: `policytrain` and humans can read how contested each
// state was.
type LearnedState struct {
	// Arm is the base policy Plan delegates to in this state.
	Arm string `json:"arm"`
	// Visits is how many training observations each arm received here.
	Visits []int `json:"visits"`
	// Cost is each arm's mean training cost here (lower is better).
	Cost []float64 `json:"cost"`
}

// LearnedTable is a trained state → base-policy selection table. It is the
// unit of serialisation: the trainer fills it with Observe, freezes it
// with Finalise, and WriteFile emits deterministic bytes (sorted state
// keys, shortest-round-trip floats) so the same training seed yields a
// byte-identical artifact.
type LearnedTable struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	// Arms lists the base policies the table selects among; every
	// per-state Visits/Cost slice is index-aligned with it. Arms must be
	// plain registry names (no "learned:" nesting).
	Arms []string `json:"arms"`
	// Fallback is the arm used for states never seen in training.
	Fallback string `json:"fallback"`
	// MissWeight and EnergyWeight record the reward the table was trained
	// on (cost = MissWeight·missRate + EnergyWeight·avgPowerW), so a table
	// file documents its own objective.
	MissWeight   float64 `json:"missWeight"`
	EnergyWeight float64 `json:"energyWeight"`
	// States maps StateKey strings to training records.
	States map[string]*LearnedState `json:"states"`
}

// NewLearnedTable builds an empty table over the given arms.
func NewLearnedTable(arms []string) *LearnedTable {
	return &LearnedTable{
		Version: LearnedTableVersion,
		Arms:    append([]string(nil), arms...),
		States:  map[string]*LearnedState{},
	}
}

// Observe folds one training observation — cost of running arm (index into
// Arms) through a scenario that visited state key — into the running
// per-state mean. Call order determines nothing but float accumulation
// order, so trainers must apply observations in a deterministic order.
func (t *LearnedTable) Observe(key string, arm int, cost float64) {
	st := t.States[key]
	if st == nil {
		st = &LearnedState{
			Visits: make([]int, len(t.Arms)),
			Cost:   make([]float64, len(t.Arms)),
		}
		t.States[key] = st
	}
	st.Visits[arm]++
	st.Cost[arm] += (cost - st.Cost[arm]) / float64(st.Visits[arm])
}

// Finalise freezes the greedy selection: Fallback becomes the arm with the
// lowest visit-weighted global mean cost, and each state's Arm the lowest-
// cost arm among those visited there (Fallback where none were). Ties
// break toward the lower arm index, and the global sums accumulate over
// sorted state keys — map-order float accumulation could flip a
// within-rounding-error fallback argmin between identical training runs,
// which the byte-identical-table contract cannot afford.
func (t *LearnedTable) Finalise() {
	keys := make([]string, 0, len(t.States))
	for k := range t.States {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	totalVisits := make([]int, len(t.Arms))
	totalCost := make([]float64, len(t.Arms))
	for _, k := range keys {
		st := t.States[k]
		for i, n := range st.Visits {
			totalVisits[i] += n
			totalCost[i] += float64(n) * st.Cost[i]
		}
	}
	fb := 0
	fbCost := math.Inf(1)
	for i := range t.Arms {
		if totalVisits[i] == 0 {
			continue
		}
		if c := totalCost[i] / float64(totalVisits[i]); c < fbCost {
			fb, fbCost = i, c
		}
	}
	t.Fallback = t.Arms[fb]
	//detlint:ordered each state's argmin is computed from that state alone; no cross-state accumulation
	for _, st := range t.States {
		best, bestCost := -1, math.Inf(1)
		for i, n := range st.Visits {
			if n > 0 && st.Cost[i] < bestCost {
				best, bestCost = i, st.Cost[i]
			}
		}
		if best < 0 {
			st.Arm = t.Fallback
		} else {
			st.Arm = t.Arms[best]
		}
	}
}

// Choose returns the arm for a state key: the trained greedy choice, or
// Fallback for states never seen in training.
func (t *LearnedTable) Choose(key string) string {
	if st := t.States[key]; st != nil {
		return st.Arm
	}
	return t.Fallback
}

// Validate checks a table is internally consistent — version, arm names,
// per-state slice alignment, finite costs — so a hand-edited or truncated
// file fails at load with a field-level message, not at plan time with a
// panic or a silently wrong delegation.
func (t *LearnedTable) Validate() error {
	if t.Version != LearnedTableVersion {
		return fmt.Errorf("rtm: learned table version %d, want %d", t.Version, LearnedTableVersion)
	}
	if len(t.Arms) == 0 {
		return fmt.Errorf("rtm: learned table has no arms")
	}
	armIdx := make(map[string]bool, len(t.Arms))
	for _, a := range t.Arms {
		if a == "" || strings.Contains(a, ":") {
			return fmt.Errorf("rtm: learned table arm %q must be a plain registry name", a)
		}
		if armIdx[a] {
			return fmt.Errorf("rtm: learned table arm %q listed twice", a)
		}
		armIdx[a] = true
	}
	if !armIdx[t.Fallback] {
		return fmt.Errorf("rtm: learned table fallback %q is not an arm (%v)", t.Fallback, t.Arms)
	}
	// Visit states in sorted key order: validation stops at the first bad
	// state, and map order would make *which* error a multi-defect table
	// reports vary run to run (detlint:rangemap surfaced this).
	keys := make([]string, 0, len(t.States))
	for k := range t.States {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		st := t.States[key]
		if st == nil {
			return fmt.Errorf("rtm: learned table state %q is null", key)
		}
		if !armIdx[st.Arm] {
			return fmt.Errorf("rtm: learned table state %q selects unknown arm %q", key, st.Arm)
		}
		if len(st.Visits) != len(t.Arms) || len(st.Cost) != len(t.Arms) {
			return fmt.Errorf("rtm: learned table state %q carries %d visit / %d cost entries, want %d (one per arm)",
				key, len(st.Visits), len(st.Cost), len(t.Arms))
		}
		for i, n := range st.Visits {
			if n < 0 {
				return fmt.Errorf("rtm: learned table state %q arm %q has negative visits", key, t.Arms[i])
			}
			if math.IsNaN(st.Cost[i]) || math.IsInf(st.Cost[i], 0) {
				return fmt.Errorf("rtm: learned table state %q arm %q has non-finite cost", key, t.Arms[i])
			}
		}
	}
	return nil
}

// MarshalBytes renders the table as deterministic indented JSON: map keys
// sort, floats use shortest-round-trip formatting, so identical tables are
// byte-identical files — the property the trainer's seed-determinism
// contract (and CI's cmp check) rests on.
func (t *LearnedTable) MarshalBytes() ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// WriteFile validates and writes the table to path.
func (t *LearnedTable) WriteFile(path string) error {
	raw, err := t.MarshalBytes()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// ReadLearnedTable decodes and validates a table from JSON bytes.
func ReadLearnedTable(raw []byte) (*LearnedTable, error) {
	var t LearnedTable
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("rtm: decoding learned table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// ReadLearnedTableFile reads and validates a table file from disk.
func ReadLearnedTableFile(path string) (*LearnedTable, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rtm: reading learned table: %w", err)
	}
	t, err := ReadLearnedTable(raw)
	if err != nil {
		return nil, fmt.Errorf("rtm: %s: %w", path, err)
	}
	return t, nil
}

// ---- State discretisation ----

// State-space sizes. The buckets are deliberately coarse: with three base
// policies and a few hundred fleet workloads per training run, a small
// table fills densely; a fine one would train on single-digit visits per
// cell.
const (
	stateThermalBuckets = 3 // headroom to throttle: hot / warm / cool
	statePowerBuckets   = 4 // budget ÷ platform max dynamic power quartile-ish
	stateSlackBuckets   = 4 // worst deadline slack: missing / tight / ok / loose
	stateAppsCap        = 4 // running DNN count, capped
)

// StateKey discretises a planning View into the learned policy's tabular
// state: thermal-headroom bucket, power-budget ratio bucket, worst
// deadline-slack bucket, and running-DNN count. Identical Views map to
// identical keys, and the key depends only on View fields — both
// properties the Policy determinism contract needs.
//
// The key is compact ("h1p2s0a3") because it appears once per Plan call on
// the training hot path and as every map key of the serialised table.
//
//detlint:hotpath
func StateKey(v *View) string {
	var b [12]byte
	key := append(b[:0], 'h')
	key = strconv.AppendInt(key, int64(thermalBucket(v)), 10)
	key = append(key, 'p')
	key = strconv.AppendInt(key, int64(powerBucket(v)), 10)
	key = append(key, 's')
	key = strconv.AppendInt(key, int64(slackBucket(v)), 10)
	key = append(key, 'a')
	key = strconv.AppendInt(key, int64(dnnCount(v)), 10)
	return string(key)
}

// thermalBucket classifies the headroom between the die and the effective
// throttle point (margin included): <3 °C hot, <10 °C warm, else cool.
func thermalBucket(v *View) int {
	return thermalBucketOf(v.ThrottleC - v.MarginC - v.TempC)
}

// thermalBucketOf is the headroom → bucket mapping shared by the View
// path and the live-engine fingerprint path; both must discretise
// identically or elision could reuse a plan the policy would not repeat.
func thermalBucketOf(headC float64) int {
	switch {
	case headC < 3:
		return 0
	case headC < 10:
		return 1
	default:
		return 2
	}
}

// powerBucket classifies the thermal power budget relative to the
// platform's maximum dynamic draw (every cluster flat out): the same
// absolute budget means very different planning freedom on a 5 W board
// and a 15 W SoC.
func powerBucket(v *View) int {
	maxDyn := 0.0
	for _, cl := range v.Platform.Clusters {
		maxDyn += dynPowerMW(cl, cl.MaxOPP(), cl.Cores, 1)
	}
	if maxDyn <= 0 {
		return statePowerBuckets - 1
	}
	switch r := v.DynBudgetMW / maxDyn; {
	case r < 0.25:
		return 0
	case r < 0.5:
		return 1
	case r < 1:
		return 2
	default:
		return 3
	}
}

// slackBucket classifies the worst relative deadline slack across running
// DNNs, judged on each app's observed average latency: negative slack
// (missing) is 0, under a quarter of the budget left is 1, under 60% is
// 2, else 3. A view with no running DNNs reports full slack.
func slackBucket(v *View) int {
	worst := math.Inf(1)
	for i := range v.Apps {
		a := &v.Apps[i]
		if !a.Running || a.Kind != sim.KindDNN {
			continue
		}
		budget := v.Req(*a).MaxLatencyS
		if budget <= 0 {
			continue
		}
		if slack := (budget - a.AvgLatency) / budget; slack < worst {
			worst = slack
		}
	}
	return slackBucketOf(worst)
}

// slackBucketOf maps a worst relative slack to its bucket (shared with
// the live-engine fingerprint path, like thermalBucketOf).
func slackBucketOf(worst float64) int {
	switch {
	case math.IsInf(worst, 1):
		return stateSlackBuckets - 1
	case worst < 0:
		return 0
	case worst < 0.25:
		return 1
	case worst < 0.6:
		return 2
	default:
		return 3
	}
}

// dnnCount counts running DNN apps, capped at stateAppsCap.
func dnnCount(v *View) int {
	n := 0
	for i := range v.Apps {
		if v.Apps[i].Running && v.Apps[i].Kind == sim.KindDNN {
			n++
		}
	}
	if n > stateAppsCap {
		n = stateAppsCap
	}
	return n
}

// ---- The runtime policy ----

// learnedPolicy delegates each Plan, whole, to the base policy its table
// selects for the current discretised state. Delegating the entire plan —
// rather than learning knob settings directly — keeps every plan the
// learned policy emits inside the feasibility envelope the base policies
// already guarantee (ledger bookkeeping, thermal budget, memory), so the
// learner can only ever choose *among* safe strategies, never invent an
// unsafe one.
type learnedPolicy struct {
	name  string
	table *LearnedTable
	arms  map[string]Policy
}

// learnedTableCache memoises successfully loaded table files by path
// (sync.Map: written once per path, read per policy resolution). A fleet
// run resolves its policy by name once per scenario, so an uncached
// loader would re-read, re-parse and re-validate the file millions of
// times on the hot path — and, worse, a file edited mid-run would split
// one sweep across two different tables, breaking the bit-identical-at-
// any-worker-count contract. First successful load wins for the process
// lifetime; load *errors* are not cached, so a missing file can be fixed
// and retried.
var learnedTableCache sync.Map

// LoadLearnedPolicy reads a trained table file and wraps it as a Policy
// named "learned:<path>" — the same string the parameterised registry
// resolves, so Result.Policy fields and shard validation round-trip it.
// Tables are cached by path for the process lifetime (see
// learnedTableCache); the returned Policy is fresh per call.
func LoadLearnedPolicy(path string) (Policy, error) {
	t, ok := learnedTableCache.Load(path)
	if !ok {
		loaded, err := ReadLearnedTableFile(path)
		if err != nil {
			return nil, err
		}
		// LoadOrStore keeps the first stored table on a racing load, so
		// every concurrent resolver still plans from one table.
		t, _ = learnedTableCache.LoadOrStore(path, loaded)
	}
	// Cached tables were validated at load; skip the O(states×arms)
	// re-validation a per-scenario resolution would otherwise repeat.
	return newLearnedPolicy(LearnedParamPrefix+":"+path, t.(*LearnedTable))
}

// NewLearnedPolicy validates an in-memory table and wraps it as a Policy
// under the given registry name. Trainers use it to evaluate a freshly
// trained table without a file round-trip.
func NewLearnedPolicy(name string, t *LearnedTable) (Policy, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return newLearnedPolicy(name, t)
}

// newLearnedPolicy wraps an already-validated table. Arms are instantiated
// fresh per policy — never cached or shared — because third-party arms may
// carry per-instance state, and policy instances elsewhere in the system
// are one-per-scenario-run.
func newLearnedPolicy(name string, t *LearnedTable) (Policy, error) {
	arms := make(map[string]Policy, len(t.Arms))
	for _, a := range t.Arms {
		p, err := NewPolicy(a)
		if err != nil {
			return nil, fmt.Errorf("rtm: learned table arm: %w", err)
		}
		arms[a] = p
	}
	return &learnedPolicy{name: name, table: t, arms: arms}, nil
}

// Name implements Policy: the full parameterised registry key.
func (p *learnedPolicy) Name() string { return p.name }

// armFor resolves the base policy for a view's state.
func (p *learnedPolicy) armFor(v *View) Policy {
	return p.arms[p.table.Choose(StateKey(v))]
}

// Plan implements Policy.
func (p *learnedPolicy) Plan(v View) []Assignment {
	return p.armFor(&v).Plan(v)
}

// planInto implements scratchPlanner: state lookup is read-only, so the
// delegate's allocation-free path carries straight through and a manager
// running a learned policy keeps the PR 4 hot-path properties (modulo the
// state-key string itself).
func (p *learnedPolicy) planInto(v *View, sc *planScratch) []Assignment {
	arm := p.armFor(v)
	if sp, ok := arm.(scratchPlanner); ok {
		return sp.planInto(v, sc)
	}
	return arm.Plan(*v)
}

// ---- Plan-reuse seam ----
//
// The learned policy opts into replan elision, but unlike the built-ins
// its plan depends on more than the epoch-tracked View: the thermal and
// slack buckets read continuously-moving observables (die temperature,
// per-app average latency). Elision therefore folds those buckets —
// discretised exactly as StateKey would see them — into the dynamic
// fingerprint.

// dynFingerprint implements fingerprinted: the thermal and slack buckets
// computed from live engine state, bit-for-bit as the View path would
// discretise them. The remaining StateKey inputs (power bucket, DNN
// count) are fully determined by epoch-tracked state plus the manager
// fields already in the fingerprint, so they need no re-derivation here.
func (p *learnedPolicy) dynFingerprint(e *sim.Engine, m *Manager) uint64 {
	margin := m.BaseMarginC + float64(m.Pressure())*m.PressureStepC
	tb := thermalBucketOf(e.ThrottleC() - margin - e.Temperature())
	worst := math.Inf(1)
	for i, n := 0, e.AppCount(); i < n; i++ {
		a := e.AppAt(i)
		if !a.Running || a.Kind != sim.KindDNN {
			continue
		}
		budget := m.Requirement(a.Name, a.PeriodS).MaxLatencyS
		if budget <= 0 {
			continue
		}
		if slack := (budget - a.AvgLatency) / budget; slack < worst {
			worst = slack
		}
	}
	sb := slackBucketOf(worst)
	return uint64(tb)<<8 | uint64(sb)
}

func init() {
	RegisterParam(LearnedParamPrefix, func(arg string) (Policy, error) {
		return LoadLearnedPolicy(arg)
	})
}
