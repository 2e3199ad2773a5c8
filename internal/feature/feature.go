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
	// PipeIdx is the index of the pipe in Network.Pipes().
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
// columnar registry (dataset.Columns: a decoded PCOL file, or
// Network.Columns); categorical vocabularies are collected from the full
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

	// Standardization state, fitted by TrainSet.
	fitted bool
	mean   []float64
	scale  []float64
	// isNumeric marks columns that participate in standardization.
	isNumeric []bool
}

// NewBuilder returns a Builder over the columns; a network reaches it
// through Network.Columns. Zero-valued Options get the full feature set
// with standardization enabled.
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
	c := &b.cols.Pipes
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
	var numeric []bool
	addNum := func(n string) { names = append(names, n); numeric = append(numeric, true) }
	addCat := func(n string) { names = append(names, n); numeric = append(numeric, false) }

	if g.Material {
		for _, m := range b.materials {
			addCat("material=" + string(m))
		}
		for _, c := range b.coatings {
			addCat("coating=" + string(c))
		}
	}
	if g.Age {
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
		addNum("prior_failures")
		addNum("had_failure")
	}
	b.names = names
	b.isNumeric = numeric
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

// TrainSet builds the pipe-year training set for the split and fits the
// standardization statistics. History features for an instance in year y
// use failures in [split.TrainFrom, y-1] only. The returned set is dense
// (one contiguous backing array; see Set.Flat).
func (b *Builder) TrainSet(split dataset.Split) (*Set, error) {
	laid := b.cols.Pipes.LaidYear
	rows := 0
	for y := split.TrainFrom; y <= split.TrainTo; y++ {
		for _, l := range laid {
			if int(l) <= y {
				rows++
			}
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("feature: empty training set for split %+v", split)
	}
	s := NewDense(b.Names(), rows, b.Dim())
	r := 0
	var p dataset.Pipe
	for y := split.TrainFrom; y <= split.TrainTo; y++ {
		for i, l := range laid {
			if int(l) > y {
				continue
			}
			b.cols.PipeAt(i, &p)
			b.rowInto(s.X[r], i, &p, y, split.TrainFrom, y-1)
			s.Label[r] = b.cols.FailedInYear(i, y)
			s.Age[r] = p.AgeAt(y)
			s.LengthM[r] = p.LengthM
			s.PipeIdx[r] = i
			s.Year[r] = y
			r++
		}
	}
	b.fitScaler(s)
	b.apply(s)
	return s, nil
}

// TestSet builds the one-row-per-pipe test set for the split, using the
// standardization fitted by TrainSet. History features use the full
// training window. The returned set is dense (see Set.Flat).
func (b *Builder) TestSet(split dataset.Split) (*Set, error) {
	if !b.fitted {
		return nil, fmt.Errorf("feature: TestSet called before TrainSet")
	}
	laid := b.cols.Pipes.LaidYear
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
		s.Label[r] = b.cols.FailedInYear(i, y)
		s.Age[r] = p.AgeAt(y)
		s.LengthM[r] = p.LengthM
		s.PipeIdx[r] = i
		s.Year[r] = y
		r++
	}
	b.apply(s)
	return s, nil
}

func (b *Builder) fitScaler(s *Set) {
	d := b.Dim()
	b.mean = make([]float64, d)
	b.scale = make([]float64, d)
	for j := 0; j < d; j++ {
		b.scale[j] = 1
	}
	if !b.opts.Standardize {
		b.fitted = true
		return
	}
	n := float64(s.Len())
	for j := 0; j < d; j++ {
		if !b.isNumeric[j] {
			continue
		}
		sum := 0.0
		for _, row := range s.X {
			sum += row[j]
		}
		mean := sum / n
		ss := 0.0
		for _, row := range s.X {
			dv := row[j] - mean
			ss += dv * dv
		}
		sd := math.Sqrt(ss / n)
		b.mean[j] = mean
		if sd > 1e-12 {
			b.scale[j] = sd
		}
	}
	b.fitted = true
}

func (b *Builder) apply(s *Set) {
	if !b.opts.Standardize {
		return
	}
	for _, row := range s.X {
		for j := range row {
			if b.isNumeric[j] {
				row[j] = (row[j] - b.mean[j]) / b.scale[j]
			}
		}
	}
}
