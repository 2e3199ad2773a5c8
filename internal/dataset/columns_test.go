package dataset_test

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/synthetic"
)

func generate(t *testing.T, scale float64, seed int64) *dataset.Network {
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

// TestColumnsAgainstNetwork holds the columnar accessors to the network's
// ID-keyed row lookups as the oracle.
func TestColumnsAgainstNetwork(t *testing.T) {
	net := generate(t, 0.05, 29)
	c := net.Columns()
	if c.NumPipes() != net.NumPipes() || c.NumEvents() != net.NumFailures() {
		t.Fatalf("%d pipes / %d events, want %d / %d", c.NumPipes(), c.NumEvents(), net.NumPipes(), net.NumFailures())
	}
	if !reflect.DeepEqual(c.Failures(), net.Failures()) {
		t.Fatal("event log differs from the network's")
	}
	var p dataset.Pipe
	for i, want := range net.Pipes() {
		c.PipeAt(i, &p)
		if p != want {
			t.Fatalf("pipe %d differs: %+v vs %+v", i, p, want)
		}
		for y := net.ObservedFrom - 1; y <= net.ObservedTo+1; y++ {
			if got, want := c.FailedInYear(i, y), net.FailedInYear(p.ID, y); got != want {
				t.Fatalf("pipe %d FailedInYear(%d): %v vs %v", i, y, got, want)
			}
		}
		if got, want := c.FailureCount(i, net.ObservedFrom, net.ObservedTo),
			net.FailureCount(p.ID, net.ObservedFrom, net.ObservedTo); got != want {
			t.Fatalf("pipe %d FailureCount: %d vs %d", i, got, want)
		}
		if got := c.FailureCount(i, net.ObservedTo, net.ObservedFrom); got != 0 {
			t.Fatalf("pipe %d empty-window FailureCount: %d", i, got)
		}
	}
}

// TestColumnsDropOrphanFailures pins that a failure naming a pipe outside
// the registry changes no feature bit: Columns leaves it out, exactly as
// the network's ID-keyed history never counts it.
func TestColumnsDropOrphanFailures(t *testing.T) {
	net := generate(t, 0.04, 31)
	fails := append([]dataset.Failure(nil), net.Failures()...)
	fails = append(fails, dataset.Failure{PipeID: "GHOST", Year: net.ObservedTo - 1, Day: 10, Mode: dataset.ModeBreak})
	orphaned := dataset.NewNetwork(net.Region, net.ObservedFrom, net.ObservedTo, net.Pipes(), fails)
	if orphaned.Validate() == nil {
		t.Fatal("an orphan failure must fail validation")
	}
	if got, want := orphaned.Columns().NumEvents(), net.NumFailures(); got != want {
		t.Fatalf("Columns kept %d events, want %d", got, want)
	}
	split, err := dataset.PaperSplit(net)
	if err != nil {
		t.Fatal(err)
	}
	sets := func(n *dataset.Network) (*feature.Set, *feature.Set) {
		b, err := feature.NewBuilder(n.Columns(), feature.Options{})
		if err != nil {
			t.Fatal(err)
		}
		train, err := b.TrainSet(split)
		if err != nil {
			t.Fatal(err)
		}
		test, err := b.TestSet(split)
		if err != nil {
			t.Fatal(err)
		}
		return train, test
	}
	wantTrain, wantTest := sets(net)
	gotTrain, gotTest := sets(orphaned)
	if !reflect.DeepEqual(gotTrain, wantTrain) || !reflect.DeepEqual(gotTest, wantTest) {
		t.Fatal("an orphan failure changed the feature sets")
	}
}
