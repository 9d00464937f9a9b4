package analysis

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/linalg"
)

// Predictor is one regression column: a (sink, non-baseline power state)
// pair whose per-state draw the regression estimates.
type Predictor struct {
	Res   core.ResourceID
	State core.PowerState
}

// StateGroup aggregates all intervals that share one power-state vector
// ("we group all intervals from the log that have the same power state j,
// adding the time t_j and energy E_j spent at that power state").
type StateGroup struct {
	Key      string
	Active   []Predictor // predictors on during this group
	TimeUS   int64
	EnergyUJ float64
}

// PowerMW returns the group's average power y_j = E_j / t_j in milliwatts.
func (g StateGroup) PowerMW() float64 {
	if g.TimeUS == 0 {
		return 0
	}
	return g.EnergyUJ / float64(g.TimeUS) * 1000
}

// Regression holds the energy-breakdown estimation for one node.
type Regression struct {
	Predictors []Predictor
	Groups     []StateGroup

	// Dropped lists predictors excluded because they were active in every
	// group (collinear with the constant) or never active.
	Dropped []Predictor

	// MergedInto maps predictors whose on/off pattern was identical to
	// another's onto the representative predictor that carries their
	// combined draw. States that always switch together cannot be
	// disambiguated (Section 5.2's linear-independence limitation); the
	// estimate for the representative is the sum of the group's draws.
	MergedInto map[Predictor]Predictor

	// PowerMW maps each fitted predictor to its estimated draw; ConstMW is
	// the constant term.
	PowerMW map[Predictor]float64
	ConstMW float64

	// Fit carries residual diagnostics (RelErr is the paper's
	// ||Y - X Pi|| / ||Y||).
	Fit *linalg.WLSResult
}

// mergeTimeFrac is the share of the observed time below which two
// predictors' on/off patterns count as the same, and the predictors merge.
// States that switch (almost) in lockstep, a radio's regulator and
// oscillator for example, cannot be separated reliably; estimating their
// combined draw is both honest and numerically stable (Section 5.2's
// linear-independence limitation).
const mergeTimeFrac = 0.002

// RunRegression estimates per-predictor power draws from state intervals
// and the vectors they index. Intervals are grouped by their vector's Key,
// so distinct vectors with equal keys share one group. The fit has a
// constant column absorbing the baseline draw and constrains every draw,
// the constant's included, to be non-negative (non-negative least squares):
// without that, nearly collinear predictors can fit as huge opposite-signed
// pairs and corrupt the attribution. Of opts it reads only Weighted.
func RunRegression(intervals []StateInterval, vectors []StateVector, pulseUJ float64, opts Options) (*Regression, error) {
	var sc regScratch
	reg, fail := sc.run(intervals, vectors, pulseUJ, opts.Weighted)
	if fail.failed() {
		return nil, fail.err()
	}
	return reg, nil
}

// regScratch holds a regression's working tables. RunRegression uses a
// fresh one; a StreamAnalyzer keeps one across the nodes it analyzes, so a
// run that regresses node after node sizes the tables once. Nothing a
// Regression returns points into it.
type regScratch struct {
	order    []int32 // vector indices, sorted by key
	groupOf  []int32 // each vector's group
	groups   []StateGroup
	cands    []Predictor
	activeIn []bool  // candidate c is on in group g at [c*len(groups)+g]
	colOf    []int32 // each candidate's column (its representative's if merged), or -1 if dropped
	reps     []int32 // each column's candidate
}

// regFailure says why a regression could not fit, as the numbers its error
// names, so a caller that only falls back to a constant-only model never
// formats a message. The zero value means the fit succeeded.
type regFailure struct {
	kind         regFailKind
	groups, cols int
	solver       error
}

type regFailKind uint8

const (
	regFitted regFailKind = iota
	regNoIntervals
	regUnderdetermined
	regSolverFailed
)

func (f regFailure) failed() bool { return f.kind != regFitted }

// err returns the error RunRegression reports for the failure.
func (f regFailure) err() error {
	switch f.kind {
	case regNoIntervals:
		return fmt.Errorf("analysis: no intervals to regress")
	case regUnderdetermined:
		return fmt.Errorf("analysis: %d state groups cannot constrain %d coefficients", f.groups, f.cols)
	case regSolverFailed:
		return fmt.Errorf("analysis: regression: %w", f.solver)
	}
	return nil
}

// run is RunRegression on the scratch's tables.
func (sc *regScratch) run(intervals []StateInterval, vectors []StateVector, pulseUJ float64, weighted bool) (*Regression, regFailure) {
	if len(intervals) == 0 {
		return nil, regFailure{kind: regNoIntervals}
	}

	// Group by state-vector key: one sort of the vector indices puts the
	// groups in key order (a stable order, for deterministic numerics), and
	// breaking ties by index makes a group's first vector, whose predictors
	// it takes, come first. Then every interval adds to its vector's group
	// in log order.
	order := sc.order[:0]
	for v := range vectors {
		order = append(order, int32(v))
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := strings.Compare(vectors[a].Key, vectors[b].Key); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	groupOf := slices.Grow(sc.groupOf[:0], len(vectors))[:len(vectors)]
	groups := sc.groups[:0]
	for i, v := range order {
		if i == 0 || vectors[v].Key != vectors[order[i-1]].Key {
			groups = append(groups, StateGroup{Key: vectors[v].Key, Active: vectors[v].Active})
		}
		groupOf[v] = int32(len(groups) - 1)
	}
	sc.order, sc.groupOf, sc.groups = order, groupOf, groups
	for _, iv := range intervals {
		g := &groups[groupOf[iv.Vec]]
		g.TimeUS += iv.Duration()
		g.EnergyUJ += iv.EnergyUJ(pulseUJ)
	}
	{
		// Groups whose total energy never crossed a pulse boundary carry a
		// weight of zero and a meaningless y_j = 0; with the paper's
		// weights they contribute nothing, so remove them before predictor
		// selection (otherwise a predictor seen only in zero-weight groups
		// would make the weighted system rank-deficient). Vectors no
		// interval spent time in go the same way.
		kept := groups[:0]
		for _, g := range groups {
			if g.TimeUS > 0 && g.EnergyUJ > 0 {
				kept = append(kept, g)
			}
		}
		groups = kept
	}

	// Candidate predictors: everything active somewhere, in sorted order,
	// each with its incidence over the groups.
	cands := sc.cands[:0]
	for _, g := range groups {
		cands = append(cands, g.Active...)
	}
	slices.SortFunc(cands, comparePredictors)
	cands = slices.Compact(cands)
	sc.cands = cands
	candOf := func(p Predictor) int {
		c, _ := slices.BinarySearchFunc(cands, p, comparePredictors)
		return c
	}
	ng := len(groups)
	activeIn := slices.Grow(sc.activeIn[:0], len(cands)*ng)[:len(cands)*ng]
	clear(activeIn)
	sc.activeIn = activeIn
	for gi, g := range groups {
		for _, p := range g.Active {
			activeIn[candOf(p)*ng+gi] = true
		}
	}
	row := func(c int) []bool { return activeIn[c*ng : (c+1)*ng] }

	// Drop candidates active in every group, and merge candidates whose
	// incidence patterns are identical (perfectly collinear: the system
	// would be singular) or near-identical (their patterns differ for a
	// negligible share of the observed time, so the fit would split their
	// combined draw arbitrarily, often into huge opposite-signed
	// coefficients). The first predictor in sorted order represents the
	// merged set and its coefficient carries the combined draw.
	var spanUS int64
	for _, g := range groups {
		spanUS += g.TimeUS
	}
	limit := int64(mergeTimeFrac * float64(spanUS))
	// diffTime returns how long candidates p's and q's indicators disagree.
	diffTime := func(p, q int) int64 {
		var d int64
		rp, rq := row(p), row(q)
		for gi, g := range groups {
			if rp[gi] != rq[gi] {
				d += g.TimeUS
			}
		}
		return d
	}
	colOf, reps := sc.colOf[:0], sc.reps[:0]
	for c := range cands {
		if !slices.Contains(row(c), false) {
			// Active always: indistinguishable from the constant.
			colOf = append(colOf, -1)
			continue
		}
		col := slices.IndexFunc(reps, func(r int32) bool { return diffTime(c, int(r)) <= limit })
		if col < 0 {
			col = len(reps)
			reps = append(reps, int32(c))
		}
		colOf = append(colOf, int32(col))
	}
	sc.colOf, sc.reps = colOf, reps

	cols := len(reps) + 1 // the predictors, then the constant
	if len(groups) < cols {
		return nil, regFailure{kind: regUnderdetermined, groups: len(groups), cols: cols}
	}

	// Assemble X, Y, W.
	x := linalg.NewMatrix(len(groups), cols)
	y := make([]float64, len(groups))
	w := make([]float64, len(groups))
	for i, g := range groups {
		for _, p := range g.Active {
			if c := colOf[candOf(p)]; c >= 0 {
				x.Set(i, int(c), 1)
			}
		}
		x.Set(i, cols-1, 1)
		y[i] = g.PowerMW()
		if weighted {
			w[i] = math.Sqrt(g.EnergyUJ * float64(g.TimeUS))
		} else {
			w[i] = 1
		}
	}

	fit, err := linalg.NNLS(x, y, w)
	if err != nil {
		return nil, regFailure{kind: regSolverFailed, solver: err}
	}

	reg := &Regression{
		Groups:     slices.Clone(groups),
		MergedInto: make(map[Predictor]Predictor),
		PowerMW:    make(map[Predictor]float64, len(reps)),
		Fit:        fit,
	}
	for c, col := range colOf {
		switch p := cands[c]; {
		case col < 0:
			reg.Dropped = append(reg.Dropped, p)
		case int(reps[col]) == c:
			reg.Predictors = append(reg.Predictors, p)
			reg.PowerMW[p] = fit.Coef[col]
		default:
			reg.MergedInto[p] = cands[reps[col]]
		}
	}
	reg.ConstMW = fit.Coef[cols-1]
	return reg, regFailure{}
}

// comparePredictors orders predictors by resource, then state.
func comparePredictors(a, b Predictor) int {
	if c := cmp.Compare(a.Res, b.Res); c != 0 {
		return c
	}
	return cmp.Compare(a.State, b.State)
}

// CurrentMA converts a predictor's fitted power to current at the given
// supply voltage, for comparison against Table 1/2/3 current columns.
func (r *Regression) CurrentMA(p Predictor, volts float64) float64 {
	return r.PowerMW[p] / volts
}

// ConstCurrentMA converts the constant term to current.
func (r *Regression) ConstCurrentMA(volts float64) float64 {
	return r.ConstMW / volts
}
