package feature

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synthetic"
)

// referenceTrainSet is the direct encoding TrainSet must reproduce bit
// for bit: every row encoded from scratch, year-major, and each numeric
// column's statistics accumulated in its own pass over the rows.
func referenceTrainSet(b *Builder, split dataset.Split) *Set {
	rows := 0
	laid := b.cols.Registry.LaidYear
	for y := split.TrainFrom; y <= split.TrainTo; y++ {
		for _, l := range laid {
			if int(l) <= y {
				rows++
			}
		}
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
	if !b.opts.Standardize {
		return s
	}
	n := float64(s.Len())
	for _, j := range b.numeric {
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
		scale := 1.0
		if sd := math.Sqrt(ss / n); sd > 1e-12 {
			scale = sd
		}
		for _, row := range s.X {
			row[j] = (row[j] - mean) / scale
		}
	}
	return s
}

// TestTrainSetMatchesReference checks the pipe-major fill against the
// direct encoding on a generated region whose pipes enter service both
// before and inside the training window, for the full feature set and
// for configurations without the year-dependent groups.
func TestTrainSetMatchesReference(t *testing.T) {
	cfg := synthetic.RegionA(11)
	cfg.NumPipes = 800
	cfg.TargetFailures = 220
	cfg.LaidTo = 2006 // some pipes enter service mid-window
	net, _, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	split := mustSplit(t, net)
	noAge, _ := AllGroups().Without("age")
	noHistory, _ := AllGroups().Without("history")
	for _, opts := range []Options{
		{},
		{Groups: AllGroups()},
		{Groups: noAge, Standardize: true},
		{Groups: noHistory, Standardize: true},
	} {
		b, err := NewBuilder(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.TrainSet(split)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceTrainSet(b, split)
		if got.Len() != want.Len() {
			t.Fatalf("%+v: %d rows, want %d", opts, got.Len(), want.Len())
		}
		gf, _ := got.Flat()
		wf, _ := want.Flat()
		for k := range wf {
			if math.Float64bits(gf[k]) != math.Float64bits(wf[k]) {
				t.Fatalf("%+v: row %d col %s: %v, want %v", opts, k/b.Dim(), b.names[k%b.Dim()], gf[k], wf[k])
			}
		}
		for r := range want.Label {
			if got.Label[r] != want.Label[r] || got.Age[r] != want.Age[r] || got.LengthM[r] != want.LengthM[r] ||
				got.PipeIdx[r] != want.PipeIdx[r] || got.Year[r] != want.Year[r] {
				t.Fatalf("%+v: row %d metadata differs", opts, r)
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
