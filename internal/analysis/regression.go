package analysis

import (
	"fmt"
	"math"
	"slices"
	"sort"

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

// RegressionOptions tunes the estimation.
type RegressionOptions struct {
	// Weighted selects the paper's w = sqrt(E*t) weights; unweighted OLS
	// otherwise (the ablation).
	Weighted bool
	// IncludeConstant adds the constant column absorbing baseline draw.
	IncludeConstant bool
	// MinGroupTimeUS drops groups observed for less than this long, whose
	// y_j are dominated by quantization noise.
	MinGroupTimeUS int64
	// MergeTimeFrac merges predictors whose on/off patterns differ for
	// less than this fraction of the observed time. States that switch
	// (almost) in lockstep — a radio's regulator and oscillator, for
	// example — cannot be separated reliably; estimating their combined
	// draw is both honest and numerically stable (Section 5.2's
	// linear-independence limitation).
	MergeTimeFrac float64
	// NonNegative constrains all fitted draws (including the constant) to
	// be physically plausible, i.e. >= 0, using non-negative least
	// squares. Without it, nearly collinear predictors can fit as huge
	// opposite-signed pairs and corrupt the energy attribution.
	NonNegative bool
}

// DefaultRegressionOptions mirrors the paper's method.
func DefaultRegressionOptions() RegressionOptions {
	return RegressionOptions{
		Weighted:        true,
		IncludeConstant: true,
		MinGroupTimeUS:  0,
		MergeTimeFrac:   0.002,
		NonNegative:     true,
	}
}

// RunRegression estimates per-predictor power draws from state intervals
// and the vectors they index. Intervals are grouped by their vector's Key,
// so distinct vectors with equal keys share one group.
func RunRegression(intervals []StateInterval, vectors []StateVector, pulseUJ float64, opts RegressionOptions) (*Regression, error) {
	if len(intervals) == 0 {
		return nil, fmt.Errorf("analysis: no intervals to regress")
	}

	// Group by state-vector key: each vector finds its group once, then
	// every interval adds to its vector's group in log order.
	groupIdx := make(map[string]int, len(vectors))
	groupOf := make([]int, len(vectors))
	var groups []StateGroup
	for v, sv := range vectors {
		gi, ok := groupIdx[sv.Key]
		if !ok {
			gi = len(groups)
			groupIdx[sv.Key] = gi
			groups = append(groups, StateGroup{Key: sv.Key, Active: sv.Active})
		}
		groupOf[v] = gi
	}
	for _, iv := range intervals {
		g := &groups[groupOf[iv.Vec]]
		g.TimeUS += iv.Duration()
		g.EnergyUJ += iv.EnergyUJ(pulseUJ)
	}
	// Stable group order for deterministic numerics.
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
	{
		// Groups whose total energy never crossed a pulse boundary carry a
		// weight of zero and a meaningless y_j = 0; with the paper's
		// weights they contribute nothing, so remove them before predictor
		// selection (otherwise a predictor seen only in zero-weight groups
		// would make the weighted system rank-deficient). Vectors no
		// interval spent time in go the same way.
		kept := groups[:0]
		for _, g := range groups {
			if g.TimeUS >= opts.MinGroupTimeUS && g.TimeUS > 0 && g.EnergyUJ > 0 {
				kept = append(kept, g)
			}
		}
		groups = kept
	}

	// Candidate predictors: everything active somewhere, in sorted order,
	// each with its incidence over the groups.
	var cands []Predictor
	for _, g := range groups {
		cands = append(cands, g.Active...)
	}
	sortPredictors(cands)
	cands = slices.Compact(cands)
	candOf := make(map[Predictor]int, len(cands))
	for i, p := range cands {
		candOf[p] = i
	}
	activeIn := make([][]bool, len(cands)) // [candidate][group]
	for i := range activeIn {
		activeIn[i] = make([]bool, len(groups))
	}
	for gi, g := range groups {
		for _, p := range g.Active {
			activeIn[candOf[p]][gi] = true
		}
	}

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
	limit := int64(opts.MergeTimeFrac * float64(spanUS))
	// diffTime returns how long candidates p's and q's indicators disagree.
	diffTime := func(p, q int) int64 {
		var d int64
		for gi, g := range groups {
			if activeIn[p][gi] != activeIn[q][gi] {
				d += g.TimeUS
			}
		}
		return d
	}
	var predictors, dropped []Predictor
	mergedInto := make(map[Predictor]Predictor)
	var reps []int // each predictor's candidate index
	for p, pred := range cands {
		if opts.IncludeConstant && !slices.Contains(activeIn[p], false) {
			// Active always: indistinguishable from the constant.
			dropped = append(dropped, pred)
			continue
		}
		rep := slices.IndexFunc(reps, func(r int) bool { return diffTime(p, r) <= limit })
		if rep >= 0 {
			mergedInto[pred] = predictors[rep]
			continue
		}
		reps = append(reps, p)
		predictors = append(predictors, pred)
	}

	cols := len(predictors)
	if opts.IncludeConstant {
		cols++
	}
	if cols == 0 {
		return nil, fmt.Errorf("analysis: no predictors observed")
	}
	if len(groups) < cols {
		return nil, fmt.Errorf("analysis: %d state groups cannot constrain %d coefficients", len(groups), cols)
	}

	// Assemble X, Y, W.
	colOf := make(map[Predictor]int, len(predictors))
	for i, p := range predictors {
		colOf[p] = i
	}
	x := linalg.NewMatrix(len(groups), cols)
	y := make([]float64, len(groups))
	w := make([]float64, len(groups))
	for i, g := range groups {
		for _, p := range g.Active {
			if r, ok := mergedInto[p]; ok {
				p = r
			}
			if c, ok := colOf[p]; ok {
				x.Set(i, c, 1)
			}
		}
		if opts.IncludeConstant {
			x.Set(i, cols-1, 1)
		}
		y[i] = g.PowerMW()
		if opts.Weighted {
			w[i] = math.Sqrt(g.EnergyUJ * float64(g.TimeUS))
		} else {
			w[i] = 1
		}
	}

	var fit *linalg.WLSResult
	var err error
	if opts.NonNegative {
		fit, err = linalg.NNLS(x, y, w)
	} else {
		fit, err = linalg.WLS(x, y, w)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: regression: %w", err)
	}

	reg := &Regression{
		Predictors: predictors,
		Groups:     groups,
		Dropped:    dropped,
		MergedInto: mergedInto,
		PowerMW:    make(map[Predictor]float64, len(predictors)),
		Fit:        fit,
	}
	for i, p := range predictors {
		reg.PowerMW[p] = fit.Coef[i]
	}
	if opts.IncludeConstant {
		reg.ConstMW = fit.Coef[cols-1]
	}
	return reg, nil
}

func sortPredictors(ps []Predictor) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Res != ps[j].Res {
			return ps[i].Res < ps[j].Res
		}
		return ps[i].State < ps[j].State
	})
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

// PredictGroup returns the fitted power of one group (the X*Pi row),
// used to reconstruct power-state traces.
func (r *Regression) PredictGroup(active []Predictor) float64 {
	p := r.ConstMW
	for _, a := range active {
		p += r.PowerMW[a]
	}
	return p
}
