package feature

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synthetic"
)

// refTrainSet is the pipe-year training set as a direct encoding
// builds it: one separately allocated row per instance, encoded from
// scratch, with its label and the pipe and age that name the instance.
type refTrainSet struct {
	rows  [][]float64
	label []bool
	pipe  []int
	age   []float64
	len   []float64
}

// referenceTrainSet is the direct encoding TrainSet must reproduce bit
// for bit: every row encoded from scratch, year-major, and each numeric
// column's statistics accumulated in its own pass over the rows.
func referenceTrainSet(b *Builder, split dataset.Split) *refTrainSet {
	s := &refTrainSet{}
	var p dataset.Pipe
	for y := split.TrainFrom; y <= split.TrainTo; y++ {
		for i, l := range b.cols.Registry.LaidYear {
			if int(l) > y {
				continue
			}
			b.cols.PipeAt(i, &p)
			x := make([]float64, b.Dim())
			b.rowInto(x, i, &p, y, split.TrainFrom, y-1)
			s.rows = append(s.rows, x)
			s.label = append(s.label, b.cols.FailedInYear(i, y))
			s.pipe = append(s.pipe, i)
			s.age = append(s.age, p.AgeAt(y))
			s.len = append(s.len, p.LengthM)
		}
	}
	if !b.opts.Standardize {
		return s
	}
	n := float64(len(s.rows))
	for _, j := range b.numeric {
		sum := 0.0
		for _, row := range s.rows {
			sum += row[j]
		}
		mean := sum / n
		ss := 0.0
		for _, row := range s.rows {
			dv := row[j] - mean
			ss += dv * dv
		}
		scale := 1.0
		if sd := math.Sqrt(ss / n); sd > 1e-12 {
			scale = sd
		}
		for _, row := range s.rows {
			row[j] = (row[j] - mean) / scale
		}
	}
	return s
}

// TestTrainSetMatchesReference checks the pipe-major fill against the
// direct encoding, row order included (each row's pipe and age name its
// instance), for the full feature set, unstandardized, and without the
// year-dependent groups. The regions are every generator preset, region
// A extended live with failures and renewals, and a region whose pipes
// enter service both before and inside the training window.
func TestTrainSetMatchesReference(t *testing.T) {
	cases := factoredCases(t)
	cfg := synthetic.RegionA(11)
	cfg.NumPipes = 800
	cfg.TargetFailures = 220
	cfg.LaidTo = 2006 // some pipes enter service mid-window
	var err error
	if cases["A laid mid-window"], _, err = synthetic.Generate(cfg); err != nil {
		t.Fatal(err)
	}
	noAge, _ := AllGroups().Without("age")
	noHistory, _ := AllGroups().Without("history")
	for name, cols := range cases {
		split := mustSplit(t, cols)
		for _, opts := range []Options{
			{},
			{Groups: AllGroups()},
			{Groups: noAge, Standardize: true},
			{Groups: noHistory, Standardize: true},
		} {
			b, err := NewBuilder(cols, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.TrainSet(split)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceTrainSet(b, split)
			if got.Len() != len(want.rows) || got.Dim() != b.Dim() {
				t.Fatalf("%s %+v: %dx%d, want %dx%d", name, opts, got.Len(), got.Dim(), len(want.rows), b.Dim())
			}
			for r, wr := range want.rows {
				if got.PipeIdx[r] != want.pipe[r] || math.Float64bits(got.Age[r]) != math.Float64bits(want.age[r]) {
					t.Fatalf("%s %+v: row %d is pipe %d at age %v, want pipe %d at age %v",
						name, opts, r, got.PipeIdx[r], got.Age[r], want.pipe[r], want.age[r])
				}
				if got.Label[r] != want.label[r] || math.Float64bits(got.LengthM[r]) != math.Float64bits(want.len[r]) {
					t.Fatalf("%s %+v: row %d label or length differs", name, opts, r)
				}
				for j, v := range got.Row(r, nil) {
					if math.Float64bits(v) != math.Float64bits(wr[j]) {
						t.Fatalf("%s %+v: row %d col %s: %v, want %v", name, opts, r, b.names[j], v, wr[j])
					}
				}
			}
		}
	}
}

// TestFitThenTestSetMatchesTrainSetPath: a test set built after Fit
// alone is bit-identical to one built after TrainSet, and a TrainSet
// built after Fit reuses its statistics rather than fitting again, and
// is bit-identical to one built on a fresh builder.
func TestFitThenTestSetMatchesTrainSetPath(t *testing.T) {
	net := buildNet()
	split := mustSplit(t, net)
	fitOnly, err := NewBuilder(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fitOnly.Fit(split); err != nil {
		t.Fatal(err)
	}
	got, err := fitOnly.TestSet(split)
	if err != nil {
		t.Fatal(err)
	}
	fittedMean := &fitOnly.mean[0]
	gotTrain, err := fitOnly.TrainSet(split)
	if err != nil {
		t.Fatal(err)
	}
	if &fitOnly.mean[0] != fittedMean {
		t.Fatal("TrainSet after Fit on the same window fitted again")
	}
	full, err := NewBuilder(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantTrain, err := full.TrainSet(split)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.TestSet(split)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want *Set
	}{{"test", got, want}, {"train", gotTrain, wantTrain}} {
		gf, _ := c.got.Flat()
		wf, _ := c.want.Flat()
		if len(gf) != len(wf) {
			t.Fatalf("%s set: %d values after Fit, %d on a fresh builder", c.name, len(gf), len(wf))
		}
		for k := range wf {
			if math.Float64bits(gf[k]) != math.Float64bits(wf[k]) {
				t.Fatalf("%s set value %d: %v after Fit, %v on a fresh builder", c.name, k, gf[k], wf[k])
			}
		}
	}
}
