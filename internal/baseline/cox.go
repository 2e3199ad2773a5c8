package baseline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/feature"
	"repro/internal/linalg"
)

// CoxConfig tunes the Cox proportional-hazards baseline.
type CoxConfig struct {
	// Ridge is the L2 penalty on the coefficients (default 1e-3 per pipe).
	Ridge float64
	// MaxIter caps the Newton iterations (default 25).
	MaxIter int
	// Tol is the convergence threshold (default 1e-7).
	Tol float64
	// SmoothWindow is the moving-average window (in years) applied to the
	// Breslow baseline-hazard increments before scoring (default 7).
	SmoothWindow int
}

func (c *CoxConfig) fillDefaults() {
	if c.Ridge <= 0 {
		c.Ridge = 1e-3
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 25
	}
	if c.Tol <= 0 {
		c.Tol = 1e-7
	}
	if c.SmoothWindow <= 0 {
		c.SmoothWindow = 7
	}
}

// Cox is the Cox proportional-hazards model h(t, x) = h0(t)·exp(βᵀx) on the
// pipe-age time scale, the most widely used survival baseline for pipe
// failure prediction.
//
// Pipe-year instances are collapsed into per-pipe survival records with
// delayed entry (pipes enter the risk set at their age when the observation
// window opens), event age = age at first in-window failure, censoring age
// = age at the end of the training window. The partial likelihood uses the
// Breslow convention for ties and is maximized by Newton's method with an
// efficient counting-process sweep. The baseline cumulative hazard is
// estimated with the Breslow estimator; a pipe's score for the test year is
// the predicted probability 1 − exp(−ΔH0(age)·exp(βᵀx)).
type Cox struct {
	cfg CoxConfig
	// Beta are the fitted log-hazard-ratio coefficients.
	Beta []float64
	// hazardByAge is the smoothed annual baseline-hazard increment,
	// indexed by integer age.
	hazardByAge []float64
	fitted      bool
}

// NewCox returns an unfitted Cox model.
func NewCox(cfg CoxConfig) *Cox {
	cfg.fillDefaults()
	return &Cox{cfg: cfg}
}

// Name implements core.Model.
func (m *Cox) Name() string { return "Cox" }

// coxRecord is one pipe's survival record.
type coxRecord struct {
	entry float64 // age at entry into the risk set
	exit  float64 // age at event or censoring
	event bool
	x     []float64
}

// buildRecords collapses pipe-year instances into survival records. Sets
// with Age are dense, so each record keeps a view of its row.
func buildRecords(train *feature.Set) []coxRecord {
	type acc struct {
		minAge, maxAge float64
		eventAge       float64
		event          bool
		x              []float64
	}
	byPipe := make(map[int]*acc)
	order := make([]int, 0, 64)
	for i := range train.Label {
		pid := train.PipeIdx[i]
		a, ok := byPipe[pid]
		if !ok {
			a = &acc{minAge: train.Age[i], maxAge: train.Age[i], x: train.Row(i, nil)}
			byPipe[pid] = a
			order = append(order, pid)
		}
		if train.Age[i] < a.minAge {
			a.minAge = train.Age[i]
			a.x = train.Row(i, nil) // covariates as of first exposure year
		}
		if train.Age[i] > a.maxAge {
			a.maxAge = train.Age[i]
		}
		if train.Label[i] && (!a.event || train.Age[i] < a.eventAge) {
			a.event = true
			a.eventAge = train.Age[i]
		}
	}
	sort.Ints(order)
	recs := make([]coxRecord, 0, len(order))
	for _, pid := range order {
		a := byPipe[pid]
		r := coxRecord{entry: a.minAge, x: a.x}
		if a.event {
			// Event in the middle of the failure year keeps entry < exit
			// even for first-year events.
			r.exit = a.eventAge + 0.5
			r.event = true
		} else {
			r.exit = a.maxAge + 1
		}
		recs = append(recs, r)
	}
	return recs
}

// Fit implements core.Model.
func (m *Cox) Fit(train *feature.Set) error {
	if train == nil || train.Len() == 0 {
		return fmt.Errorf("%s: empty training set", m.Name())
	}
	recs := buildRecords(train)
	d := train.Dim()
	events := 0
	for _, r := range recs {
		if r.event {
			events++
		}
	}
	if events == 0 {
		return fmt.Errorf("%s: no events in training window", m.Name())
	}
	if events == len(recs) {
		return fmt.Errorf("%s: every pipe failed; partial likelihood degenerate", m.Name())
	}

	beta := make([]float64, d)
	ridge := m.cfg.Ridge * float64(len(recs))
	var lastTimes []float64
	var lastS0 []float64
	for iter := 0; iter < m.cfg.MaxIter; iter++ {
		grad, hess, times, s0s := m.sweep(recs, beta, d)
		for j := 0; j < d; j++ {
			grad[j] -= ridge * beta[j]
			hess.Set(j, j, hess.At(j, j)+ridge)
		}
		step, err := linalg.SolveRidge(hess, grad, 1e-9)
		if err != nil {
			return fmt.Errorf("%s: newton step: %w", m.Name(), err)
		}
		// Damp huge steps for stability.
		if n := linalg.NormInf(step); n > 2 {
			linalg.Scale(2/n, step)
		}
		linalg.Axpy(1, step, beta)
		lastTimes, lastS0 = times, s0s
		if linalg.NormInf(step) < m.cfg.Tol {
			break
		}
	}
	m.Beta = beta

	// Breslow baseline: ΔH0(t_k) = d_k / S0(t_k), accumulated into annual
	// increments by integer age, then smoothed.
	maxAge := 0.0
	for _, r := range recs {
		if r.exit > maxAge {
			maxAge = r.exit
		}
	}
	annual := make([]float64, int(maxAge)+2)
	// Recompute S0 at the final beta (lastTimes/lastS0 are from the last
	// sweep, which used the pre-update beta; one more sweep is cheap).
	_, _, lastTimes, lastS0 = m.sweep(recs, beta, d)
	counts := countEvents(recs)
	for i, t := range lastTimes {
		if lastS0[i] <= 0 {
			continue
		}
		inc := counts[t] / lastS0[i]
		age := int(t)
		if age >= 0 && age < len(annual) {
			annual[age] += inc
		}
	}
	m.hazardByAge = movingAverage(annual, m.cfg.SmoothWindow)
	m.fitted = true
	return nil
}

// sweep runs one counting-process pass, returning the partial-likelihood
// gradient and negative Hessian plus the distinct event times and their
// S0 values (for the Breslow baseline).
func (m *Cox) sweep(recs []coxRecord, beta []float64, d int) ([]float64, *linalg.Matrix, []float64, []float64) {
	// Distinct event times, descending.
	timeSet := map[float64]bool{}
	for _, r := range recs {
		if r.event {
			timeSet[r.exit] = true
		}
	}
	times := make([]float64, 0, len(timeSet))
	for t := range timeSet {
		times = append(times, t)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(times)))

	// Subjects sorted for the descending sweep: add when exit >= t,
	// remove when entry >= t.
	byExit := make([]int, len(recs))
	byEntry := make([]int, len(recs))
	for i := range recs {
		byExit[i] = i
		byEntry[i] = i
	}
	sort.Slice(byExit, func(a, b int) bool { return recs[byExit[a]].exit > recs[byExit[b]].exit })
	sort.Slice(byEntry, func(a, b int) bool { return recs[byEntry[a]].entry > recs[byEntry[b]].entry })

	s0 := 0.0
	s1 := make([]float64, d)
	s2 := linalg.NewMatrix(d, d)
	addSubject := func(i int, sign float64) {
		w := math.Exp(linalg.Dot(beta, recs[i].x))
		s0 += sign * w
		x := recs[i].x
		for p := 0; p < d; p++ {
			s1[p] += sign * w * x[p]
			row := s2.Row(p)
			wxp := sign * w * x[p]
			for q := 0; q < d; q++ {
				row[q] += wxp * x[q]
			}
		}
	}

	grad := make([]float64, d)
	hess := linalg.NewMatrix(d, d)
	ei, ri := 0, 0
	s0Out := make([]float64, len(times))
	for ti, t := range times {
		for ei < len(byExit) && recs[byExit[ei]].exit >= t {
			addSubject(byExit[ei], 1)
			ei++
		}
		for ri < len(byEntry) && recs[byEntry[ri]].entry >= t {
			addSubject(byEntry[ri], -1)
			ri++
		}
		if s0 <= 1e-300 {
			continue
		}
		s0Out[ti] = s0
		// Events at this time (Breslow ties).
		for _, r := range recs {
			if r.event && r.exit == t {
				for p := 0; p < d; p++ {
					grad[p] += r.x[p] - s1[p]/s0
				}
				for p := 0; p < d; p++ {
					hrow := hess.Row(p)
					srow := s2.Row(p)
					for q := 0; q < d; q++ {
						hrow[q] += srow[q]/s0 - (s1[p]/s0)*(s1[q]/s0)
					}
				}
			}
		}
	}
	return grad, hess, times, s0Out
}

func countEvents(recs []coxRecord) map[float64]float64 {
	counts := map[float64]float64{}
	for _, r := range recs {
		if r.event {
			counts[r.exit]++
		}
	}
	return counts
}

func movingAverage(xs []float64, window int) []float64 {
	if window <= 1 {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, len(xs))
	half := window / 2
	for i := range xs {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		s := 0.0
		for j := lo; j <= hi; j++ {
			s += xs[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

// baselineIncrement returns the smoothed annual baseline-hazard increment
// at the given age, extrapolating flat beyond the observed range.
func (m *Cox) baselineIncrement(age float64) float64 {
	if len(m.hazardByAge) == 0 {
		return 0
	}
	i := int(age)
	if i < 0 {
		i = 0
	}
	if i >= len(m.hazardByAge) {
		i = len(m.hazardByAge) - 1
	}
	v := m.hazardByAge[i]
	if v <= 0 {
		// Fall back to the last positive increment so extrapolated ages
		// still separate by exp(βᵀx).
		for j := i; j >= 0; j-- {
			if m.hazardByAge[j] > 0 {
				return m.hazardByAge[j]
			}
		}
		return 1e-12
	}
	return v
}

// Scores implements core.Model; scores are one-year failure probabilities
// 1 − exp(−ΔH0(age)·exp(βᵀx)).
func (m *Cox) Scores(test *feature.Set) ([]float64, error) {
	if !m.fitted {
		return nil, fmt.Errorf("%s: %w", m.Name(), ErrNotFitted)
	}
	if test.Dim() != len(m.Beta) {
		return nil, fmt.Errorf("%s: test dim %d != model dim %d", m.Name(), test.Dim(), len(m.Beta))
	}
	out := make([]float64, test.Len())
	for i := range out {
		eta := linalg.Dot(test.Row(i, nil), m.Beta)
		if eta > 50 {
			eta = 50
		}
		dh := m.baselineIncrement(test.Age[i])
		out[i] = 1 - math.Exp(-dh*math.Exp(eta))
	}
	return out, nil
}
