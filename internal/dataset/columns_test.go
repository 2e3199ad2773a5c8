package dataset_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/synthetic"
)

func generate(t *testing.T, scale float64, seed int64) *dataset.Columns {
	t.Helper()
	cfg, err := synthetic.Preset("A", seed)
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err = cfg.Scaled(scale); err != nil {
		t.Fatal(err)
	}
	net, _, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestColumnsAgainstNetwork holds the columnar history accessors to the
// materialized rows as the oracle: per-pipe counts taken from Failures()
// by pipe ID.
func TestColumnsAgainstNetwork(t *testing.T) {
	c := generate(t, 0.05, 29)
	fails := c.Failures()
	if len(fails) != c.NumFailures() {
		t.Fatalf("%d materialized failures, want %d", len(fails), c.NumFailures())
	}
	count := func(id string, from, to int) int {
		n := 0
		for _, f := range fails {
			if f.PipeID == id && f.Year >= from && f.Year <= to {
				n++
			}
		}
		return n
	}
	for i, p := range c.Pipes() {
		if row, ok := c.RowOf(p.ID); !ok || row != i {
			t.Fatalf("RowOf(%s) = %d, %v; want %d", p.ID, row, ok, i)
		}
		for y := c.ObservedFrom - 1; y <= c.ObservedTo+1; y++ {
			if got, want := c.FailedInYear(i, y), count(p.ID, y, y) > 0; got != want {
				t.Fatalf("pipe %d FailedInYear(%d): %v vs %v", i, y, got, want)
			}
		}
		if got, want := c.FailureCount(i, c.ObservedFrom, c.ObservedTo), count(p.ID, c.ObservedFrom, c.ObservedTo); got != want {
			t.Fatalf("pipe %d FailureCount: %d vs %d", i, got, want)
		}
		if got := c.FailureCount(i, c.ObservedTo, c.ObservedFrom); got != 0 {
			t.Fatalf("pipe %d empty-window FailureCount: %d", i, got)
		}
	}
}

// TestColumnsDropOrphanFailures pins that a live failure naming a pipe
// outside the registry changes no feature bit: ExtendLive leaves it out,
// and the row constructor refuses it.
func TestColumnsDropOrphanFailures(t *testing.T) {
	net := generate(t, 0.04, 31)
	ghost := dataset.Failure{PipeID: "GHOST", Year: net.ObservedTo - 1, Day: 10, Mode: dataset.ModeBreak}
	fails := append(net.Failures(), ghost)
	if _, err := dataset.FromRows(net.Region, net.ObservedFrom, net.ObservedTo, net.Pipes(), fails); err == nil {
		t.Fatal("an orphan failure must fail validation")
	}
	orphaned := net.ExtendLive([]dataset.Failure{ghost}, nil)
	if got, want := orphaned.NumFailures(), net.NumFailures(); got != want {
		t.Fatalf("ExtendLive kept %d events, want %d", got, want)
	}
	wantTrain, wantTest := featureSets(t, net)
	gotTrain, gotTest := featureSets(t, orphaned)
	sameSet(t, "train", gotTrain, wantTrain)
	sameSet(t, "test", gotTest, wantTest)
}

// featureSets builds the paper-split training and test sets of c.
func featureSets(t *testing.T, c *dataset.Columns) (train, test *feature.Set) {
	t.Helper()
	split, err := dataset.PaperSplit(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := feature.NewBuilder(c, feature.Options{Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(split); err != nil {
		t.Fatal(err)
	}
	if train, err = b.TrainSet(split); err != nil {
		t.Fatal(err)
	}
	if test, err = b.TestSet(split); err != nil {
		t.Fatal(err)
	}
	return train, test
}

// sameSet fails unless two feature sets are bit-identical.
func sameSet(t *testing.T, what string, got, want *feature.Set) {
	t.Helper()
	if !reflect.DeepEqual(got.Names, want.Names) || !reflect.DeepEqual(got.Label, want.Label) ||
		!reflect.DeepEqual(got.PipeIdx, want.PipeIdx) || got.Len() != want.Len() || got.Dim() != want.Dim() {
		t.Fatalf("%s set: names, labels, shapes or pipes differ", what)
	}
	bits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !bits(got.Age, want.Age) || !bits(got.LengthM, want.LengthM) {
		t.Fatalf("%s set: ages or lengths differ", what)
	}
	for r := range got.Label {
		if !bits(got.Row(r, nil), want.Row(r, nil)) {
			t.Fatalf("%s set: row %d differs", what, r)
		}
	}
}

// liveEvents draws n live failures in the last training year on pipes
// that exist by then, and k renewals (plus an older, overridden renewal
// of the first one) of pipes with no recorded failure, so the renewed
// region still validates.
func liveEvents(c *dataset.Columns, seed int64, n, k int) ([]dataset.Failure, []dataset.Renewal) {
	rng := rand.New(rand.NewSource(seed))
	year := c.ObservedTo - 1
	var fails []dataset.Failure
	for len(fails) < n {
		i := rng.Intn(c.NumPipes())
		if int(c.Registry.LaidYear[i]) > year {
			continue
		}
		fails = append(fails, dataset.Failure{PipeID: c.Registry.ID[i], Segment: rng.Intn(int(c.Registry.Segments[i])),
			Year: year, Day: 1 + rng.Intn(365), Mode: dataset.ModeBreak})
	}
	var renewals []dataset.Renewal
	for _, i := range rng.Perm(c.NumPipes()) {
		if len(renewals) == k {
			break
		}
		if int(c.Registry.LaidYear[i]) < year-5 && c.FailureCount(i, c.ObservedFrom, c.ObservedTo) == 0 {
			renewals = append(renewals, dataset.Renewal{PipeID: c.Registry.ID[i], Year: year - 1})
		}
	}
	renewals = append(renewals, dataset.Renewal{PipeID: renewals[0].PipeID, Year: year - 3})
	return fails, renewals
}

// TestExtendLiveMatchesRowOracle holds ExtendLive to an independent
// rebuild: the base rows plus the live failures, with the renewals
// applied to the rows, through the row constructor.
func TestExtendLiveMatchesRowOracle(t *testing.T) {
	base := generate(t, 0.05, 41)
	fails, renewals := liveEvents(base, 1, 300, 25)
	got := base.ExtendLive(fails, renewals)

	pipes := base.Pipes()
	for _, r := range renewals {
		i, _ := base.RowOf(r.PipeID)
		pipes[i].LaidYear = max(pipes[i].LaidYear, r.Year)
	}
	want, err := dataset.FromRows(base.Region, base.ObservedFrom, base.ObservedTo, pipes,
		append(base.Failures(), fails...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Pipes(), want.Pipes()) || !reflect.DeepEqual(got.Failures(), want.Failures()) {
		t.Fatal("extended rows differ from the oracle's")
	}
	if got.ObservedFrom != want.ObservedFrom || got.ObservedTo != want.ObservedTo {
		t.Fatalf("window [%d,%d], want [%d,%d]", got.ObservedFrom, got.ObservedTo, want.ObservedFrom, want.ObservedTo)
	}
	gotTrain, gotTest := featureSets(t, got)
	wantTrain, wantTest := featureSets(t, want)
	sameSet(t, "train", gotTrain, wantTrain)
	sameSet(t, "test", gotTest, wantTest)
}

// TestExtendLiveOrderFree applies one event set in two arrival orders:
// the feature sets must be bit-identical.
func TestExtendLiveOrderFree(t *testing.T) {
	base := generate(t, 0.05, 43)
	fails, renewals := liveEvents(base, 2, 300, 25)
	rfails, rrenewals := slices.Clone(fails), slices.Clone(renewals)
	slices.Reverse(rfails)
	slices.Reverse(rrenewals)
	aTrain, aTest := featureSets(t, base.ExtendLive(fails, renewals))
	bTrain, bTest := featureSets(t, base.ExtendLive(rfails, rrenewals))
	sameSet(t, "train", bTrain, aTrain)
	sameSet(t, "test", bTest, aTest)
}

// TestExtendLiveConcurrentSharedBase extends one base from two
// goroutines (run it under -race). The base's event columns carry spare
// capacity, as a decoder may leave them, so an extension that appended
// into the base's backing arrays, or renewed pipes in place, would race
// and corrupt the base or its sibling.
func TestExtendLiveConcurrentSharedBase(t *testing.T) {
	base := generate(t, 0.04, 47)
	ev := &base.Events
	ev.Pipe = slices.Grow(ev.Pipe, 1024)
	ev.Segment = slices.Grow(ev.Segment, 1024)
	ev.Year = slices.Grow(ev.Year, 1024)
	ev.Day = slices.Grow(ev.Day, 1024)
	ev.Mode = slices.Grow(ev.Mode, 1024)
	wantPipes, wantEvents := base.Pipes(), cloneEvents(base.Events)

	var inputs [2]struct {
		fails    []dataset.Failure
		renewals []dataset.Renewal
	}
	for g := range inputs {
		inputs[g].fails, inputs[g].renewals = liveEvents(base, int64(10+g), 200, 10)
	}
	var got [2]*dataset.Columns
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = base.ExtendLive(inputs[g].fails, inputs[g].renewals)
		}()
	}
	wg.Wait()

	if !reflect.DeepEqual(base.Pipes(), wantPipes) || !reflect.DeepEqual(base.Events, wantEvents) {
		t.Fatal("concurrent extensions changed the base")
	}
	for g := range got {
		want := base.ExtendLive(inputs[g].fails, inputs[g].renewals)
		if !reflect.DeepEqual(got[g].Pipes(), want.Pipes()) || !reflect.DeepEqual(got[g].Events, want.Events) {
			t.Fatalf("extension %d differs from a sequential one", g)
		}
	}
}

func cloneEvents(e dataset.EventColumns) dataset.EventColumns {
	return dataset.EventColumns{
		Pipe: slices.Clone(e.Pipe), Segment: slices.Clone(e.Segment), Year: slices.Clone(e.Year),
		Day: slices.Clone(e.Day), Mode: slices.Clone(e.Mode),
	}
}
