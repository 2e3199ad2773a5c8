package colfmt

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/synthetic"
)

func testNetwork(t testing.TB, scale float64, seed int64) *dataset.Network {
	t.Helper()
	cfg, err := synthetic.Preset("A", seed)
	if err != nil {
		t.Fatalf("preset: %v", err)
	}
	cfg, err = cfg.Scaled(scale)
	if err != nil {
		t.Fatalf("scale: %v", err)
	}
	net, _, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return net
}

func encode(t testing.TB, d *dataset.Columns) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	net := testNetwork(t, 0.05, 17)
	d := net.Columns()
	raw := encode(t, d)
	got, err := Read(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Region != d.Region || got.ObservedFrom != d.ObservedFrom || got.ObservedTo != d.ObservedTo {
		t.Fatalf("meta mismatch: got %q [%d,%d], want %q [%d,%d]",
			got.Region, got.ObservedFrom, got.ObservedTo, d.Region, d.ObservedFrom, d.ObservedTo)
	}
	if !reflect.DeepEqual(got.Pipes, d.Pipes) {
		t.Fatal("pipe columns changed across round trip")
	}
	if !reflect.DeepEqual(got.Events, d.Events) {
		t.Fatal("event columns changed across round trip")
	}

	// The materialized network must match the original exactly.
	back, err := got.Network()
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if !reflect.DeepEqual(back.Pipes(), net.Pipes()) {
		t.Fatal("materialized pipes differ from the original network")
	}
	if !reflect.DeepEqual(back.Failures(), net.Failures()) {
		t.Fatal("materialized failures differ from the original network")
	}
}

func TestWriteFileReadFile(t *testing.T) {
	net := testNetwork(t, 0.03, 5)
	d := net.Columns()
	path := filepath.Join(t.TempDir(), DatasetFile)
	if err := WriteFile(path, d); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got.Pipes, d.Pipes) || !reflect.DeepEqual(got.Events, d.Events) {
		t.Fatal("file round trip changed the columns")
	}
}

func TestOpenSniffing(t *testing.T) {
	net := testNetwork(t, 0.03, 9)
	d := net.Columns()

	csvDir := t.TempDir()
	if err := dataset.SaveDir(net, csvDir); err != nil {
		t.Fatal(err)
	}
	colDir := t.TempDir()
	if err := WriteFile(filepath.Join(colDir, DatasetFile), d); err != nil {
		t.Fatal(err)
	}
	bothDir := t.TempDir()
	if err := dataset.SaveDir(net, bothDir); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(bothDir, DatasetFile), d); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		path     string
		columnar bool
	}{
		{csvDir, false},
		{colDir, true},
		{bothDir, true},
		{filepath.Join(colDir, DatasetFile), true},
	}
	for _, c := range cases {
		data, columnar, err := Open(c.path)
		if err != nil {
			t.Fatalf("Open(%s): %v", c.path, err)
		}
		if columnar != c.columnar {
			t.Fatalf("Open(%s): columnar = %v, want %v", c.path, columnar, c.columnar)
		}
		if data.NumPipes() != net.NumPipes() || data.NumEvents() != len(net.Failures()) {
			t.Fatalf("Open(%s): %d pipes / %d failures, want %d / %d",
				c.path, data.NumPipes(), data.NumEvents(), net.NumPipes(), len(net.Failures()))
		}
		if data.Region != net.Region {
			t.Fatalf("Open(%s): region %q, want %q", c.path, data.Region, net.Region)
		}
		if id := data.Pipes.ID[3]; id != net.Pipes()[3].ID {
			t.Fatalf("Open(%s): Pipes.ID[3] = %q, want %q", c.path, id, net.Pipes()[3].ID)
		}
		got, err := OpenNetwork(c.path)
		if err != nil {
			t.Fatalf("OpenNetwork(%s): %v", c.path, err)
		}
		if !reflect.DeepEqual(got.Pipes(), net.Pipes()) || !reflect.DeepEqual(got.Failures(), net.Failures()) {
			t.Fatalf("OpenNetwork(%s): network differs from the original", c.path)
		}
	}

	missing := filepath.Join(csvDir, "no-such-path")
	if _, _, err := Open(missing); err == nil {
		t.Fatal("Open of a missing path succeeded")
	}
	if _, err := OpenNetwork(missing); err == nil {
		t.Fatal("OpenNetwork of a missing path succeeded")
	}
}

// TestColumnarBuilderBitIdentical is the cross-format differential
// harness: feature.Builder over a network's columns (the CSV load path)
// must produce bit-for-bit the same design matrices as over the same data
// decoded from PCOL bytes.
func TestColumnarBuilderBitIdentical(t *testing.T) {
	net := testNetwork(t, 0.08, 23)
	split, err := dataset.PaperSplit(net)
	if err != nil {
		t.Fatal(err)
	}
	raw := encode(t, net.Columns())
	col, err := Read(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}

	for _, std := range []bool{false, true} {
		opts := feature.Options{Groups: feature.AllGroups(), Standardize: std}
		nb, err := feature.NewBuilder(net.Columns(), opts)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := feature.NewBuilder(col, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(nb.Names(), cb.Names()) {
			t.Fatalf("standardize=%v: feature names differ:\n net: %v\n col: %v", std, nb.Names(), cb.Names())
		}
		for _, phase := range []string{"train", "test"} {
			var ns, cs *feature.Set
			if phase == "train" {
				ns, err = nb.TrainSet(split)
				if err != nil {
					t.Fatal(err)
				}
				cs, err = cb.TrainSet(split)
			} else {
				ns, err = nb.TestSet(split)
				if err != nil {
					t.Fatal(err)
				}
				cs, err = cb.TestSet(split)
			}
			if err != nil {
				t.Fatal(err)
			}
			nf, nstride := ns.Flat()
			cf, cstride := cs.Flat()
			if nstride != cstride || len(nf) != len(cf) {
				t.Fatalf("standardize=%v %s: shape %dx%d vs %dx%d",
					std, phase, len(nf), nstride, len(cf), cstride)
			}
			for i := range nf {
				if nf[i] != cf[i] {
					t.Fatalf("standardize=%v %s: flat backing differs at %d: %v vs %v",
						std, phase, i, nf[i], cf[i])
				}
			}
			if !reflect.DeepEqual(ns.Label, cs.Label) ||
				!reflect.DeepEqual(ns.Age, cs.Age) ||
				!reflect.DeepEqual(ns.LengthM, cs.LengthM) ||
				!reflect.DeepEqual(ns.PipeIdx, cs.PipeIdx) ||
				!reflect.DeepEqual(ns.Year, cs.Year) {
				t.Fatalf("standardize=%v %s: set metadata differs", std, phase)
			}
		}
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	net := testNetwork(t, 0.02, 41)
	raw := encode(t, net.Columns())

	decode := func(b []byte) error {
		_, err := Read(bytes.NewReader(b), int64(len(b)))
		return err
	}

	t.Run("valid", func(t *testing.T) {
		if err := decode(raw); err != nil {
			t.Fatalf("pristine file rejected: %v", err)
		}
	})
	t.Run("wrong magic", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[0] = 'X'
		if err := decode(b); err == nil {
			t.Fatal("accepted wrong magic")
		}
	})
	t.Run("future version", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[4] = 99
		if err := decode(b); err == nil {
			t.Fatal("accepted future version")
		}
	})
	t.Run("nonzero flags", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[6] = 1
		if err := decode(b); err == nil {
			t.Fatal("accepted unknown flags")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, 8, 20, len(raw) / 3, len(raw) - 1} {
			if err := decode(raw[:n]); err == nil {
				t.Fatalf("accepted file truncated to %d bytes", n)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		b := append(append([]byte(nil), raw...), 0)
		if err := decode(b); err == nil {
			t.Fatal("accepted trailing data")
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		// Flip one byte inside the pipe-ID blob (well past the headers);
		// the section CRC must catch it.
		b := append([]byte(nil), raw...)
		b[100] ^= 0x40
		if err := decode(b); err == nil {
			t.Fatal("accepted corrupted payload")
		}
	})
}

func TestReadRejectsBadContent(t *testing.T) {
	net := testNetwork(t, 0.02, 43)

	t.Run("duplicate IDs", func(t *testing.T) {
		d := net.Columns()
		d.Pipes.ID[1] = d.Pipes.ID[0]
		raw := encode(t, d)
		if _, err := Read(bytes.NewReader(raw), int64(len(raw))); err == nil {
			t.Fatal("accepted duplicate pipe IDs")
		}
	})
	t.Run("event ref out of range", func(t *testing.T) {
		d := net.Columns()
		if d.NumEvents() == 0 {
			t.Skip("no events at this scale")
		}
		d.Events.Pipe[0] = uint32(d.NumPipes())
		raw := encode(t, d)
		if _, err := Read(bytes.NewReader(raw), int64(len(raw))); err == nil {
			t.Fatal("accepted event referencing a row outside the registry")
		}
	})
	t.Run("non-finite float", func(t *testing.T) {
		d := net.Columns()
		d.Pipes.DiameterMM[0] = nan()
		raw := encode(t, d)
		if _, err := Read(bytes.NewReader(raw), int64(len(raw))); err == nil {
			t.Fatal("accepted NaN diameter")
		}
	})
}

func nan() float64 {
	z := 0.0
	return z / z
}

// TestCSVColumnarCSVRoundTrip is the cross-format property: rendering a
// network as CSV, converting it to columnar and back, and rendering CSV
// again must reproduce the original CSV bytes exactly, across presets and
// seeds. This is what lets pipeconv round-trip utility exports losslessly.
func TestCSVColumnarCSVRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		preset string
		seed   int64
		scale  float64
	}{
		{"A", 1, 0.04},
		{"B", 2, 0.04},
		{"C", 3, 0.03},
		{"metro", 4, 0.002},
	} {
		cfg, err := synthetic.Preset(tc.preset, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err = cfg.Scaled(tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		net, _, err := synthetic.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}

		var pipes1, fails1 bytes.Buffer
		if err := dataset.WritePipes(&pipes1, net.Pipes()); err != nil {
			t.Fatal(err)
		}
		if err := dataset.WriteFailures(&fails1, net.Failures()); err != nil {
			t.Fatal(err)
		}

		// CSV -> columnar -> encoded -> decoded -> network -> CSV.
		raw := encode(t, net.Columns())
		got, err := Read(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		back, err := got.Network()
		if err != nil {
			t.Fatal(err)
		}
		var pipes2, fails2 bytes.Buffer
		if err := dataset.WritePipes(&pipes2, back.Pipes()); err != nil {
			t.Fatal(err)
		}
		if err := dataset.WriteFailures(&fails2, back.Failures()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pipes1.Bytes(), pipes2.Bytes()) {
			t.Fatalf("%s seed %d: pipes.csv changed across CSV->columnar->CSV", tc.preset, tc.seed)
		}
		if !bytes.Equal(fails1.Bytes(), fails2.Bytes()) {
			t.Fatalf("%s seed %d: failures.csv changed across CSV->columnar->CSV", tc.preset, tc.seed)
		}
	}
}

// TestLoadRejectsImplausibleData pins validation on every load path: a
// structurally sound PCOL file carrying one implausible value must be
// rejected by Read, Open and OpenNetwork alike, with the problems
// Network.Validate reports for the same data.
func TestLoadRejectsImplausibleData(t *testing.T) {
	net := testNetwork(t, 0.03, 13)
	last := net.NumFailures() - 1
	for _, tc := range []struct {
		name   string
		mutate func(d *dataset.Columns)
	}{
		{"zero diameter", func(d *dataset.Columns) { d.Pipes.DiameterMM[0] = 0 }},
		// The latest event stays last, so both logs number it alike.
		{"failure after window", func(d *dataset.Columns) { d.Events.Year[last] = int32(d.ObservedTo + 1) }},
		{"failure segment", func(d *dataset.Columns) { d.Events.Segment[0] = 9999 }},
		// The earliest event stays first.
		{"day zero", func(d *dataset.Columns) { d.Events.Day[0] = 0 }},
		{"failure before laid year", func(d *dataset.Columns) {
			d.Pipes.LaidYear[d.Events.Pipe[0]] = d.Events.Year[0] + 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := net.Columns()
			tc.mutate(d)
			_, verr := d.Network()
			want, ok := dataset.AsValidationError(verr)
			if !ok {
				t.Fatalf("Network.Validate: got %v, want a validation error", verr)
			}
			path := filepath.Join(t.TempDir(), DatasetFile)
			if err := WriteFile(path, d); err != nil {
				t.Fatal(err)
			}
			raw := encode(t, d)
			_, readErr := Read(bytes.NewReader(raw), int64(len(raw)))
			_, _, openErr := Open(path)
			_, netErr := OpenNetwork(path)
			for _, err := range []error{readErr, openErr, netErr} {
				got, ok := dataset.AsValidationError(err)
				if !ok {
					t.Fatalf("load accepted implausible data or failed otherwise: %v", err)
				}
				if !reflect.DeepEqual(got.Problems, want.Problems) {
					t.Fatalf("problems differ:\n load:    %q\n network: %q", got.Problems, want.Problems)
				}
			}
		})
	}
}
