// Package feature turns the domain model into numeric design matrices.
//
// It implements the data-mining pipeline stage of the reproduced paper:
// heterogeneous pipe attributes (categorical material, coating and soil
// factors; continuous age, diameter, length, traffic distance) and failure
// history are encoded into fixed-length vectors, with categorical levels
// one-hot encoded and continuous features log-transformed and standardized
// on the training window only.
//
// Training uses pipe-year instances: one row per pipe per training year,
// labelled with whether the pipe failed in that year, with history features
// computed strictly from years before the instance year (no leakage).
// Testing uses one row per pipe as of the held-out year.
package feature

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/linalg"
)

// Groups selects which feature groups enter the design matrix. The zero
// value selects nothing; use AllGroups for the full model. The ablation
// experiment switches groups off one at a time.
type Groups struct {
	// Material enables the material and coating one-hots.
	Material bool
	// Age enables pipe age and its log transform.
	Age bool
	// Geometry enables diameter and length.
	Geometry bool
	// Soil enables the four soil factor one-hots.
	Soil bool
	// Traffic enables the distance-to-intersection feature.
	Traffic bool
	// History enables prior-failure-count features.
	History bool
}

// AllGroups returns every group enabled.
func AllGroups() Groups {
	return Groups{Material: true, Age: true, Geometry: true, Soil: true, Traffic: true, History: true}
}

// Without returns a copy of g with the named group disabled. Valid names:
// material, age, geometry, soil, traffic, history.
func (g Groups) Without(name string) (Groups, error) {
	switch name {
	case "material":
		g.Material = false
	case "age":
		g.Age = false
	case "geometry":
		g.Geometry = false
	case "soil":
		g.Soil = false
	case "traffic":
		g.Traffic = false
	case "history":
		g.History = false
	default:
		return g, fmt.Errorf("feature: unknown group %q", name)
	}
	return g, nil
}

// Any reports whether at least one group is enabled.
func (g Groups) Any() bool {
	return g.Material || g.Age || g.Geometry || g.Soil || g.Traffic || g.History
}

// Options configures a Builder.
type Options struct {
	// Groups selects the feature groups (default: AllGroups via NewBuilder).
	Groups Groups
	// Standardize centres and scales continuous features using training
	// statistics. One-hot columns are left as 0/1.
	Standardize bool
}

// Set is a design matrix plus the metadata models need alongside it.
// Rows align across all fields.
//
// Sets built by a Builder are dense: X's rows are views into one
// contiguous row-major backing array exposed by Flat, so scoring kernels
// can stream the whole matrix without per-row pointer chasing. Sets
// assembled by hand (or row-subset views such as the CV fold splitter's)
// may populate X alone; Flat then reports no backing and callers fall
// back to the row views.
type Set struct {
	// Names are the expanded column names of X.
	Names []string
	// X holds one feature vector per instance. When the set is dense,
	// each row is a view into the flat backing array — mutating a row
	// mutates the backing and vice versa.
	X [][]float64
	// Label is the instance label: pipe failed in the instance year.
	Label []bool
	// Age is the pipe age at the instance year (survival baselines use it
	// directly, independent of whether the age group is enabled in X).
	Age []float64
	// LengthM is the pipe length (for length-weighted evaluation).
	LengthM []float64
	// PipeIdx is the pipe's registry row.
	PipeIdx []int
	// Year is the instance year.
	Year []int

	// flat is the contiguous row-major backing (len == len(X)*stride)
	// when the set is dense, nil otherwise.
	flat   []float64
	stride int
}

// NewDense returns a Set with rows x dim dense storage: a single
// contiguous backing array with X's rows as capacity-clamped views into
// it, and the metadata slices preallocated to rows. dim must be positive;
// rows may be zero.
func NewDense(names []string, rows, dim int) *Set {
	if dim <= 0 {
		panic(fmt.Sprintf("feature: NewDense dim %d must be positive", dim))
	}
	if rows < 0 {
		panic(fmt.Sprintf("feature: NewDense rows %d must be non-negative", rows))
	}
	flat := make([]float64, rows*dim)
	x := make([][]float64, rows)
	for i := range x {
		x[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return &Set{
		Names:   names,
		X:       x,
		Label:   make([]bool, rows),
		Age:     make([]float64, rows),
		LengthM: make([]float64, rows),
		PipeIdx: make([]int, rows),
		Year:    make([]int, rows),
		flat:    flat,
		stride:  dim,
	}
}

// Flat returns the contiguous row-major backing array and the row stride
// (== Dim for dense sets), or (nil, 0) when the set was assembled from
// shared row views. Row i occupies flat[i*stride : (i+1)*stride]; the
// storage is shared with X, not a copy.
func (s *Set) Flat() ([]float64, int) {
	return s.flat, s.stride
}

// Len returns the number of instances.
func (s *Set) Len() int { return len(s.X) }

// Dim returns the feature dimensionality (0 for an empty set).
func (s *Set) Dim() int {
	if len(s.X) == 0 {
		return 0
	}
	return len(s.X[0])
}

// Positives returns the number of positive labels.
func (s *Set) Positives() int {
	c := 0
	for _, v := range s.Label {
		if v {
			c++
		}
	}
	return c
}

// Matrix copies X into a dense linalg.Matrix (for the Newton-step
// fitters). Dense sets copy their flat backing in one memcpy; view sets
// fall back to a row-by-row copy.
func (s *Set) Matrix() *linalg.Matrix {
	m := linalg.NewMatrix(max(1, s.Len()), max(1, s.Dim()))
	if s.flat != nil && s.stride == m.Cols {
		copy(m.Data, s.flat)
		return m
	}
	for i, row := range s.X {
		copy(m.Row(i), row)
	}
	return m
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Builder encodes a registry's pipes into Sets. A Builder reads one
// columnar region (dataset.Columns); categorical vocabularies are collected from the full
// registry (attributes are known for all pipes up front — only labels are
// temporal), while numeric scaling statistics are fitted on the training
// set alone. The columns must not be mutated while the Builder is in use.
type Builder struct {
	cols *dataset.Columns
	opts Options

	materials []dataset.Material
	coatings  []dataset.Coating
	soilCorr  []string
	soilExp   []string
	soilGeo   []string
	soilMap   []string

	names []string

	// Standardization state, fitted by Fit on the training window
	// [fitFrom, fitTo]. logAge[a] is Log1p(a) for every whole age a in
	// that window.
	fitted         bool
	fitFrom, fitTo int
	mean           []float64
	scale          []float64
	logAge         []float64
	// numeric lists the columns that participate in standardization, in
	// ascending order.
	numeric []int
	// ageCol and historyCol are the first of the age and history column
	// pairs, -1 when the group is off: the year-dependent slots of a row.
	ageCol, historyCol int
}

// NewBuilder returns a Builder over the columns. Zero-valued Options get
// the full feature set with standardization enabled.
func NewBuilder(cols *dataset.Columns, opts Options) (*Builder, error) {
	if cols == nil {
		return nil, fmt.Errorf("feature: nil columns")
	}
	if !opts.Groups.Any() {
		opts.Groups = AllGroups()
		opts.Standardize = true
	}
	b := &Builder{cols: cols, opts: opts}
	b.collectVocabularies()
	b.buildNames()
	if len(b.names) == 0 {
		return nil, fmt.Errorf("feature: configuration yields no features")
	}
	return b, nil
}

// collectVocabularies scans the registry for the categorical levels present,
// in sorted order for stable column layouts.
func (b *Builder) collectVocabularies() {
	c := &b.cols.Registry
	b.materials = levels(c.Material)
	b.coatings = levels(c.Coating)
	b.soilCorr = levels(c.SoilCorrosivity)
	b.soilExp = levels(c.SoilExpansivity)
	b.soilGeo = levels(c.SoilGeology)
	b.soilMap = levels(c.SoilMap)
}

// levels returns the distinct values of a categorical column, sorted.
func levels[T ~string](col []T) []T {
	seen := map[T]bool{}
	for _, v := range col {
		seen[v] = true
	}
	out := make([]T, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func (b *Builder) buildNames() {
	g := b.opts.Groups
	var names []string
	var numeric []int
	addNum := func(n string) { numeric = append(numeric, len(names)); names = append(names, n) }
	addCat := func(n string) { names = append(names, n) }

	if g.Material {
		for _, m := range b.materials {
			addCat("material=" + string(m))
		}
		for _, c := range b.coatings {
			addCat("coating=" + string(c))
		}
	}
	b.ageCol, b.historyCol = -1, -1
	if g.Age {
		b.ageCol = len(names)
		addNum("age")
		addNum("log_age")
	}
	if g.Geometry {
		addNum("log_diameter")
		addNum("log_length")
	}
	if g.Soil {
		for _, v := range b.soilCorr {
			addCat("soil_corr=" + v)
		}
		for _, v := range b.soilExp {
			addCat("soil_exp=" + v)
		}
		for _, v := range b.soilGeo {
			addCat("soil_geo=" + v)
		}
		for _, v := range b.soilMap {
			addCat("soil_map=" + v)
		}
	}
	if g.Traffic {
		addNum("log_dist_traffic")
	}
	if g.History {
		b.historyCol = len(names)
		addNum("prior_failures")
		addNum("had_failure")
	}
	b.names = names
	b.numeric = numeric
}

// Names returns the expanded feature names in column order.
func (b *Builder) Names() []string { return append([]string(nil), b.names...) }

// Dim returns the feature dimensionality.
func (b *Builder) Dim() int { return len(b.names) }

// rowInto encodes pipe i (attributes in p) as of a given year into x, a
// caller-owned slice of length Dim (typically a row view of the flat
// backing). historyFrom..historyTo bound the failure window visible to the
// history features.
func (b *Builder) rowInto(x []float64, i int, p *dataset.Pipe, year, historyFrom, historyTo int) {
	g := b.opts.Groups
	j := 0
	put := func(v float64) { x[j] = v; j++ }
	if g.Material {
		for _, m := range b.materials {
			put(boolTo01(p.Material == m))
		}
		for _, c := range b.coatings {
			put(boolTo01(p.Coating == c))
		}
	}
	if g.Age {
		age := p.AgeAt(year)
		put(age)
		put(math.Log1p(age))
	}
	if g.Geometry {
		put(math.Log(p.DiameterMM))
		put(math.Log(p.LengthM))
	}
	if g.Soil {
		for _, v := range b.soilCorr {
			put(boolTo01(p.SoilCorrosivity == v))
		}
		for _, v := range b.soilExp {
			put(boolTo01(p.SoilExpansivity == v))
		}
		for _, v := range b.soilGeo {
			put(boolTo01(p.SoilGeology == v))
		}
		for _, v := range b.soilMap {
			put(boolTo01(p.SoilMap == v))
		}
	}
	if g.Traffic {
		put(math.Log1p(p.DistToTrafficM))
	}
	if g.History {
		n := 0
		if historyTo >= historyFrom {
			n = b.cols.FailureCount(i, historyFrom, historyTo)
		}
		put(float64(n))
		put(boolTo01(n > 0))
	}
}

func boolTo01(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// Fit fits the standardization statistics of the split's training
// window: each numeric column's mean and population standard deviation
// over the pipe-year instances TrainSet builds, accumulated in the same
// row order — which fixes each sum's rounding — without building the
// matrix. TrainSet calls it; a caller that needs only a TestSet calls it
// instead of TrainSet.
func (b *Builder) Fit(split dataset.Split) error {
	from, to := split.TrainFrom, split.TrainTo
	laid := b.cols.Registry.LaidYear
	rows, minLaid := 0, to+1
	for _, l := range laid {
		if int(l) <= to {
			rows += to - max(int(l), from) + 1
			minLaid = min(minLaid, int(l))
		}
	}
	if to < from || rows == 0 {
		return fmt.Errorf("feature: empty training set for split %+v", split)
	}
	d := b.Dim()
	// One allocation holds the statistics and the log1p table for the
	// window's ages, which are whole years in [0, to-minLaid].
	buf := make([]float64, 2*d+to-minLaid+1)
	b.mean, b.scale, b.logAge = buf[:d:d], buf[d:2*d:2*d], buf[2*d:]
	for j := range b.scale {
		b.scale[j] = 1
	}
	for a := range b.logAge {
		b.logAge[a] = math.Log1p(float64(a))
	}
	b.fitted, b.fitFrom, b.fitTo = true, from, to
	if !b.opts.Standardize {
		return nil
	}

	// vals holds each pipe's raw numeric columns: the year-invariant ones
	// encoded once, the age and history slots rewritten per instance.
	k := len(b.numeric)
	vals := make([]float64, len(laid)*k)
	var rowBuf [128]float64
	row := rowBuf[:]
	if d > len(row) {
		row = make([]float64, d)
	}
	row = row[:d]
	ageAt, histAt := -1, -1
	for c, j := range b.numeric {
		switch j {
		case b.ageCol:
			ageAt = c
		case b.historyCol:
			histAt = c
		}
	}
	var p dataset.Pipe
	for i, l := range laid {
		if int(l) <= to {
			b.cols.PipeAt(i, &p)
			b.rowInto(row, i, &p, to, from, to)
			for c, j := range b.numeric {
				vals[i*k+c] = row[j]
			}
		}
	}
	instances := func(visit func(v []float64)) {
		for y := from; y <= to; y++ {
			for i, l := range laid {
				if int(l) <= y {
					v := vals[i*k : (i+1)*k]
					b.yearSlots(v, ageAt, histAt, i, y-int(l), from, y-1)
					visit(v)
				}
			}
		}
	}
	n := float64(rows)
	instances(func(v []float64) {
		for c, j := range b.numeric {
			b.mean[j] += v[c]
		}
	})
	// scale accumulates the sums of squared deviations first.
	for _, j := range b.numeric {
		b.mean[j] /= n
		b.scale[j] = 0
	}
	instances(func(v []float64) {
		for c, j := range b.numeric {
			dv := v[c] - b.mean[j]
			b.scale[j] += dv * dv
		}
	})
	for _, j := range b.numeric {
		sd := math.Sqrt(b.scale[j] / n)
		b.scale[j] = 1
		if sd > 1e-12 {
			b.scale[j] = sd
		}
	}
	return nil
}

// yearSlots writes the year-dependent values of pipe i's instance at
// the given age into v, whose age and history column pairs start at
// ageAt and histAt (-1 when the group is off); the history features
// count failures in [historyFrom, historyTo]. The values equal what
// rowInto encodes for that instance.
func (b *Builder) yearSlots(v []float64, ageAt, histAt, i, age, historyFrom, historyTo int) {
	if ageAt >= 0 {
		v[ageAt] = float64(age)
		v[ageAt+1] = b.logAge[age]
	}
	if histAt >= 0 {
		n := b.cols.FailureCount(i, historyFrom, historyTo)
		v[histAt] = float64(n)
		v[histAt+1] = boolTo01(n > 0)
	}
}

// standardize rescales the given columns of one encoded row in place
// with the fitted statistics.
func (b *Builder) standardize(x []float64, cols []int) {
	if !b.opts.Standardize {
		return
	}
	for _, j := range cols {
		x[j] = (x[j] - b.mean[j]) / b.scale[j]
	}
}

// TrainSet builds the pipe-year training set for the split, first
// fitting the standardization statistics (see Fit) unless they are
// already fitted on the split's training window. History features for an
// instance in year y use failures in [split.TrainFrom, y-1] only. The
// returned set is dense (one contiguous backing array; see Set.Flat).
//
// Rows are year-major — every pipe in service in TrainFrom, then in
// TrainFrom+1, and so on — in registry order within a year. They are
// filled pipe by pipe: a pipe's first row is encoded and standardized in
// full, and its later rows copy it, rewriting only the age and history
// slots, the only ones that vary with the year.
func (b *Builder) TrainSet(split dataset.Split) (*Set, error) {
	if !b.fitted || b.fitFrom != split.TrainFrom || b.fitTo != split.TrainTo {
		if err := b.Fit(split); err != nil {
			return nil, err
		}
	}
	from, to := split.TrainFrom, split.TrainTo
	laid := b.cols.Registry.LaidYear
	years := to - from + 1
	// next[k] first counts the pipes entering service in year from+k,
	// then becomes that year's next free row. The stack buffer keeps the
	// fill allocation-free for any realistic window.
	var nextBuf [64]int
	next := nextBuf[:]
	if years > len(next) {
		next = make([]int, years)
	}
	next = next[:years]
	for _, l := range laid {
		if k := max(int(l), from) - from; k < years {
			next[k]++
		}
	}
	rows, inService := 0, 0
	for k := range next {
		inService += next[k]
		next[k] = rows
		rows += inService
	}
	s := NewDense(b.Names(), rows, b.Dim())
	var yearBuf [4]int
	yearCols := yearBuf[:0]
	for _, at := range [2]int{b.ageCol, b.historyCol} {
		if at >= 0 {
			yearCols = append(yearCols, at, at+1)
		}
	}
	var p dataset.Pipe
	for i, l := range laid {
		first := max(int(l), from)
		if first > to {
			continue
		}
		b.cols.PipeAt(i, &p)
		var tmpl []float64
		for y := first; y <= to; y++ {
			k := y - from
			r := next[k]
			next[k]++
			x := s.X[r]
			if tmpl == nil {
				b.rowInto(x, i, &p, y, from, y-1)
				b.standardize(x, b.numeric)
				tmpl = x
			} else {
				copy(x, tmpl)
				b.yearSlots(x, b.ageCol, b.historyCol, i, y-p.LaidYear, from, y-1)
				b.standardize(x, yearCols)
			}
			s.Label[r] = b.cols.FailedInYear(i, y)
			s.Age[r] = p.AgeAt(y)
			s.LengthM[r] = p.LengthM
			s.PipeIdx[r] = i
			s.Year[r] = y
		}
	}
	return s, nil
}

// TestSet builds the one-row-per-pipe test set for the split, using the
// standardization fitted by Fit or TrainSet. History features use the
// full training window. The returned set is dense (see Set.Flat).
func (b *Builder) TestSet(split dataset.Split) (*Set, error) {
	if !b.fitted {
		return nil, fmt.Errorf("feature: TestSet called before Fit or TrainSet")
	}
	laid := b.cols.Registry.LaidYear
	y := split.TestYear
	rows := 0
	for _, l := range laid {
		if int(l) <= y {
			rows++
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("feature: empty test set for split %+v", split)
	}
	s := NewDense(b.Names(), rows, b.Dim())
	r := 0
	var p dataset.Pipe
	for i, l := range laid {
		if int(l) > y {
			continue
		}
		b.cols.PipeAt(i, &p)
		b.rowInto(s.X[r], i, &p, y, split.TrainFrom, split.TrainTo)
		b.standardize(s.X[r], b.numeric)
		s.Label[r] = b.cols.FailedInYear(i, y)
		s.Age[r] = p.AgeAt(y)
		s.LengthM[r] = p.LengthM
		s.PipeIdx[r] = i
		s.Year[r] = y
		r++
	}
	return s, nil
}
