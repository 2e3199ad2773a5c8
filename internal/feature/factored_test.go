package feature

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synthetic"
)

// factoredCases returns every generator preset at about 600–900 pipes,
// and region A extended live with failures in and after its window and
// with renewals that move pipes into the last training year and out of
// the window.
func factoredCases(t *testing.T) map[string]*dataset.Columns {
	t.Helper()
	out := map[string]*dataset.Columns{}
	for name, scale := range map[string]float64{"A": 0.05, "B": 0.05, "C": 0.05, "metro": 0.005, "nation": 0.0006} {
		cfg, err := synthetic.Preset(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if cfg, err = cfg.Scaled(scale); err != nil {
			t.Fatal(err)
		}
		cols, _, err := synthetic.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = cols
	}
	base := out["A"]
	var extra []dataset.Failure
	var renewals []dataset.Renewal
	for i, id := range base.Registry.ID {
		switch i % 7 {
		case 0:
			extra = append(extra, dataset.Failure{PipeID: id, Year: base.ObservedTo + 1, Day: 1 + i%300, Mode: dataset.ModeBreak})
		case 1:
			extra = append(extra, dataset.Failure{PipeID: id, Year: base.ObservedTo - i%5, Day: 2, Mode: dataset.ModeLeak})
		case 2:
			renewals = append(renewals, dataset.Renewal{PipeID: id, Year: base.ObservedTo})
		case 3:
			renewals = append(renewals, dataset.Renewal{PipeID: id, Year: base.ObservedTo + 1})
		}
	}
	out["A+live"] = base.ExtendLive(extra, renewals)
	return out
}

// TestFactoredRowsMatchTrainSet is the factored set's differential:
// every row Row rebuilds or Gather writes must equal the dense TrainSet
// row bit for bit, with the same label, for every preset, for feature
// groups with the year slots switched off, unstandardized, and on live
// extended regions. TestTrainSetMatchesReference ties the dense rows to
// a from-scratch encoding.
func TestFactoredRowsMatchTrainSet(t *testing.T) {
	noAge, _ := AllGroups().Without("age")
	noHistory, _ := AllGroups().Without("history")
	neither, _ := noAge.Without("history")
	for name, cols := range factoredCases(t) {
		split := mustSplit(t, cols)
		for _, opts := range []Options{
			{},
			{Groups: AllGroups()},
			{Groups: noAge, Standardize: true},
			{Groups: noHistory, Standardize: true},
			{Groups: neither, Standardize: true},
		} {
			b, err := NewBuilder(cols, opts)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := b.TrainSet(split)
			if err != nil {
				t.Fatal(err)
			}
			fac, err := b.FactoredTrainSet(split)
			if err != nil {
				t.Fatal(err)
			}
			checkFactored(t, name, opts, dense, fac)
		}
	}
}

func checkFactored(t *testing.T, name string, opts Options, dense, fac *Set) {
	t.Helper()
	if fac.X != nil || fac.PipeIdx != nil || fac.Year != nil || fac.Age != nil || fac.LengthM != nil {
		t.Fatalf("%s %+v: factored set has per-row columns besides Label", name, opts)
	}
	if fac.Len() != dense.Len() || fac.Dim() != dense.Dim() || fac.Positives() != dense.Positives() {
		t.Fatalf("%s %+v: factored %dx%d (%d positive), dense %dx%d (%d)", name, opts,
			fac.Len(), fac.Dim(), fac.Positives(), dense.Len(), dense.Dim(), dense.Positives())
	}
	if flat, stride := fac.Flat(); flat != nil || stride != 0 {
		t.Fatalf("%s %+v: factored set reports a flat backing", name, opts)
	}
	d := dense.Dim()
	// Gather reads the rows last to first, across its 256-row chunks.
	rows := make([]int, dense.Len())
	for i := range rows {
		rows[i] = len(rows) - 1 - i
	}
	gathered := make([]float64, len(rows)*d)
	fac.Gather(gathered, rows)
	denseGathered := make([]float64, len(rows)*d)
	dense.Gather(denseGathered, rows)
	buf := make([]float64, d)
	// One buffer serves every row, so a value Row failed to write would
	// show the previous row's.
	for i, r := range rows {
		if fac.Label[r] != dense.Label[r] {
			t.Fatalf("%s %+v: row %d label differs", name, opts, r)
		}
		row := fac.Row(r, buf)
		for j, want := range dense.X[r] {
			for _, got := range []float64{row[j], gathered[i*d+j], denseGathered[i*d+j]} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %+v: row %d (pipe %d, year %d) col %s: %v, dense %v",
						name, opts, r, dense.PipeIdx[r], dense.Year[r], dense.Names[j], got, want)
				}
			}
		}
	}
}

// TestFactoredSetSurvivesRefit: a factored set keeps the statistics it
// was built with when its builder is later fitted on another window.
func TestFactoredSetSurvivesRefit(t *testing.T) {
	cols := factoredCases(t)["B"]
	split := mustSplit(t, cols)
	b, err := NewBuilder(cols, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fac, err := b.FactoredTrainSet(split)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := b.TrainSet(split)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(dataset.Split{TrainFrom: split.TrainFrom + 2, TrainTo: split.TrainTo - 1, TestYear: split.TrainTo}); err != nil {
		t.Fatal(err)
	}
	checkFactored(t, "B refit", Options{}, dense, fac)
}

// TestFactoredSetAllocatesPerPipe: building a factored set allocates one
// template of Dim float64s per pipe and a label and a 12-byte key per
// pipe-year, not a Dim-wide row per pipe-year.
func TestFactoredSetAllocatesPerPipe(t *testing.T) {
	cfg := synthetic.RegionA(5)
	cfg.NumPipes = 2000
	cfg.TargetFailures = 600
	cols, _, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	split := mustSplit(t, cols)
	b, err := NewBuilder(cols, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(split); err != nil {
		t.Fatal(err)
	}
	var fac *Set
	bytes := func(build func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	got := bytes(func() { fac, err = b.FactoredTrainSet(split) })
	if err != nil {
		t.Fatal(err)
	}
	pipes, rows, d := uint64(cols.NumPipes()), uint64(fac.Len()), uint64(b.Dim())
	// The label, key and template arrays may each round up by a page;
	// the names and headers take a few hundred bytes more.
	bound := 8*pipes*d + 13*rows + 3*8192 + 4096
	if rows < 8*pipes {
		t.Fatalf("%d rows over %d pipes: too few years to tell the two apart", rows, pipes)
	}
	if got > bound {
		t.Fatalf("factored set of %d pipes, %d rows x %d allocated %d bytes, want at most %d", pipes, rows, d, got, bound)
	}
	dense := bytes(func() { _, err = b.TrainSet(split) })
	if err != nil {
		t.Fatal(err)
	}
	if dense < 8*rows*d {
		t.Fatalf("dense set allocated %d bytes, under its %d-value matrix", dense, rows*d)
	}
	t.Logf("%d pipes, %d rows x %d: factored %d bytes, dense %d", pipes, rows, d, got, dense)
}
