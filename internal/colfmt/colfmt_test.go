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

func testNetwork(t testing.TB, scale float64, seed int64) *dataset.Columns {
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
	d := testNetwork(t, 0.05, 17)
	raw := encode(t, d)
	got, err := Read(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Region != d.Region || got.ObservedFrom != d.ObservedFrom || got.ObservedTo != d.ObservedTo {
		t.Fatalf("meta mismatch: got %q [%d,%d], want %q [%d,%d]",
			got.Region, got.ObservedFrom, got.ObservedTo, d.Region, d.ObservedFrom, d.ObservedTo)
	}
	if !reflect.DeepEqual(got.Registry, d.Registry) {
		t.Fatal("pipe columns changed across round trip")
	}
	if !reflect.DeepEqual(got.Events, d.Events) {
		t.Fatal("event columns changed across round trip")
	}

	// The materialized rows must match the original exactly.
	if !reflect.DeepEqual(got.Pipes(), d.Pipes()) {
		t.Fatal("materialized pipes differ from the original")
	}
	if !reflect.DeepEqual(got.Failures(), d.Failures()) {
		t.Fatal("materialized failures differ from the original")
	}
}

func TestWriteFileReadFile(t *testing.T) {
	d := testNetwork(t, 0.03, 5)
	path := filepath.Join(t.TempDir(), DatasetFile)
	if err := WriteFile(path, d); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got.Registry, d.Registry) || !reflect.DeepEqual(got.Events, d.Events) {
		t.Fatal("file round trip changed the columns")
	}
}

func TestOpenSniffing(t *testing.T) {
	d := testNetwork(t, 0.03, 9)

	csvDir := t.TempDir()
	if err := dataset.SaveDir(d, csvDir); err != nil {
		t.Fatal(err)
	}
	colDir := t.TempDir()
	if err := WriteFile(filepath.Join(colDir, DatasetFile), d); err != nil {
		t.Fatal(err)
	}
	bothDir := t.TempDir()
	if err := dataset.SaveDir(d, bothDir); err != nil {
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
		if data.NumPipes() != d.NumPipes() || data.NumFailures() != len(d.Failures()) {
			t.Fatalf("Open(%s): %d pipes / %d failures, want %d / %d",
				c.path, data.NumPipes(), data.NumFailures(), d.NumPipes(), len(d.Failures()))
		}
		if data.Region != d.Region {
			t.Fatalf("Open(%s): region %q, want %q", c.path, data.Region, d.Region)
		}
		if id := data.Registry.ID[3]; id != d.Pipes()[3].ID {
			t.Fatalf("Open(%s): Pipes.ID[3] = %q, want %q", c.path, id, d.Pipes()[3].ID)
		}
		if !reflect.DeepEqual(data.Pipes(), d.Pipes()) || !reflect.DeepEqual(data.Failures(), d.Failures()) {
			t.Fatalf("Open(%s): rows differ from the original", c.path)
		}
	}

	missing := filepath.Join(csvDir, "no-such-path")
	if _, _, err := Open(missing); err == nil {
		t.Fatal("Open of a missing path succeeded")
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
	raw := encode(t, net)
	col, err := Read(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}

	for _, std := range []bool{false, true} {
		opts := feature.Options{Groups: feature.AllGroups(), Standardize: std}
		nb, err := feature.NewBuilder(net, opts)
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
				!reflect.DeepEqual(ns.PipeIdx, cs.PipeIdx) {
				t.Fatalf("standardize=%v %s: set metadata differs", std, phase)
			}
		}
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	net := testNetwork(t, 0.02, 41)
	raw := encode(t, net)

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
	// Each case mutates a fresh fixture, so it is rejected for its own
	// defect alone.
	t.Run("duplicate IDs", func(t *testing.T) {
		d := testNetwork(t, 0.02, 43)
		d.Registry.ID[1] = d.Registry.ID[0]
		raw := encode(t, d)
		if _, err := Read(bytes.NewReader(raw), int64(len(raw))); err == nil {
			t.Fatal("accepted duplicate pipe IDs")
		}
	})
	t.Run("event ref out of range", func(t *testing.T) {
		d := testNetwork(t, 0.02, 43)
		if d.NumFailures() == 0 {
			t.Skip("no events at this scale")
		}
		d.Events.Pipe[0] = uint32(d.NumPipes())
		raw := encode(t, d)
		if _, err := Read(bytes.NewReader(raw), int64(len(raw))); err == nil {
			t.Fatal("accepted event referencing a row outside the registry")
		}
	})
	t.Run("non-finite float", func(t *testing.T) {
		d := testNetwork(t, 0.02, 43)
		d.Registry.DiameterMM[0] = nan()
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

		// CSV -> columnar -> encoded -> decoded -> CSV.
		raw := encode(t, net)
		got, err := Read(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		var pipes2, fails2 bytes.Buffer
		if err := dataset.WritePipes(&pipes2, got.Pipes()); err != nil {
			t.Fatal(err)
		}
		if err := dataset.WriteFailures(&fails2, got.Failures()); err != nil {
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
// rejected by Read and Open alike, with the problems the row constructor
// reports for the same data as rows.
func TestLoadRejectsImplausibleData(t *testing.T) {
	net := testNetwork(t, 0.03, 13)
	clean := encode(t, net)
	last := net.NumFailures() - 1
	for _, tc := range []struct {
		name   string
		mutate func(d *dataset.Columns)
	}{
		{"zero diameter", func(d *dataset.Columns) { d.Registry.DiameterMM[0] = 0 }},
		// The latest event stays last, so both logs number it alike.
		{"failure after window", func(d *dataset.Columns) { d.Events.Year[last] = int32(d.ObservedTo + 1) }},
		{"failure segment", func(d *dataset.Columns) { d.Events.Segment[0] = 9999 }},
		// The earliest event stays first.
		{"day zero", func(d *dataset.Columns) { d.Events.Day[0] = 0 }},
		{"failure before laid year", func(d *dataset.Columns) {
			d.Registry.LaidYear[d.Events.Pipe[0]] = d.Events.Year[0] + 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Read(bytes.NewReader(clean), int64(len(clean)))
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(d)
			_, verr := dataset.FromRows(d.Region, d.ObservedFrom, d.ObservedTo, d.Pipes(), d.Failures())
			want, ok := dataset.AsValidationError(verr)
			if !ok {
				t.Fatalf("FromRows: got %v, want a validation error", verr)
			}
			path := filepath.Join(t.TempDir(), DatasetFile)
			if err := WriteFile(path, d); err != nil {
				t.Fatal(err)
			}
			raw := encode(t, d)
			_, readErr := Read(bytes.NewReader(raw), int64(len(raw)))
			_, _, openErr := Open(path)
			for _, err := range []error{readErr, openErr} {
				got, ok := dataset.AsValidationError(err)
				if !ok {
					t.Fatalf("load accepted implausible data or failed otherwise: %v", err)
				}
				if !reflect.DeepEqual(got.Problems, want.Problems) {
					t.Fatalf("problems differ:\n load: %q\n rows: %q", got.Problems, want.Problems)
				}
			}
		})
	}
}
