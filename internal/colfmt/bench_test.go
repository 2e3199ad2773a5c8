package colfmt

import (
	"bytes"
	"io"
	"os"
	"testing"

	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/synthetic"
)

// benchSizes are the data-plane measurement points: the 10k/100k slices of
// the nation preset run everywhere; the full 1M-pipe fixture takes a
// minute of synthesis on a small machine, so it only runs when BENCH_FULL
// is set (make bench-data sets it).
var benchSizes = []struct {
	name  string
	scale float64
	full  bool
}{
	{"rows=10k", 0.01, false},
	{"rows=100k", 0.1, false},
	{"rows=1M", 1.0, true},
}

// benchFixtures caches one generated dataset per scale across the whole
// benchmark binary — nation-scale synthesis dominates everything else, so
// it must run once, not once per benchmark.
var benchFixtures = map[float64]*benchFixture{}

type benchFixture struct {
	d   *dataset.Columns
	raw []byte
	// csvPipes and csvFails are the CSV renderings, for the convert path.
	csvPipes, csvFails []byte
}

func fixture(b *testing.B, scale float64) *benchFixture {
	b.Helper()
	if f, ok := benchFixtures[scale]; ok {
		return f
	}
	cfg, err := synthetic.Nation(3).Scaled(scale)
	if err != nil {
		b.Fatal(err)
	}
	net, _, err := synthetic.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	d := net.Columns()
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		b.Fatal(err)
	}
	var pbuf, fbuf bytes.Buffer
	if err := dataset.WritePipes(&pbuf, net.Pipes()); err != nil {
		b.Fatal(err)
	}
	if err := dataset.WriteFailures(&fbuf, net.Failures()); err != nil {
		b.Fatal(err)
	}
	f := &benchFixture{d: d, raw: buf.Bytes(), csvPipes: pbuf.Bytes(), csvFails: fbuf.Bytes()}
	benchFixtures[scale] = f
	return f
}

func benchEach(b *testing.B, fn func(b *testing.B, f *benchFixture)) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			if size.full && os.Getenv("BENCH_FULL") == "" {
				b.Skip("1M-pipe fixture: set BENCH_FULL=1 (make bench-data does)")
			}
			f := fixture(b, size.scale)
			// Fixture synthesis happens lazily on first use; keep it out
			// of the measurement.
			b.ResetTimer()
			fn(b, f)
		})
	}
}

// BenchmarkColRead measures the one-pass streaming decode into column
// arrays — the load path whose allocation count must not scale with rows.
func BenchmarkColRead(b *testing.B) {
	benchEach(b, func(b *testing.B, f *benchFixture) {
		b.SetBytes(int64(len(f.raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Read(bytes.NewReader(f.raw), int64(len(f.raw))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColWrite measures columnar encoding to a discarded stream.
func BenchmarkColWrite(b *testing.B) {
	benchEach(b, func(b *testing.B, f *benchFixture) {
		b.SetBytes(int64(len(f.raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Write(io.Discard, f.d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConvertCSVToCol measures the full conversion pipeline: parse
// the CSV tables, assemble the network, columnarize, encode.
func BenchmarkConvertCSVToCol(b *testing.B) {
	benchEach(b, func(b *testing.B, f *benchFixture) {
		b.SetBytes(int64(len(f.csvPipes) + len(f.csvFails)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pipes, err := dataset.ReadPipes(bytes.NewReader(f.csvPipes))
			if err != nil {
				b.Fatal(err)
			}
			fails, err := dataset.ReadFailures(bytes.NewReader(f.csvFails))
			if err != nil {
				b.Fatal(err)
			}
			net := dataset.NewNetwork(f.d.Region, f.d.ObservedFrom, f.d.ObservedTo, pipes, fails)
			if err := Write(io.Discard, net.Columns()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIngest measures feature-matrix encoding straight from the
// columns: builder construction plus train/test set fills.
func BenchmarkIngest(b *testing.B) {
	benchEach(b, func(b *testing.B, f *benchFixture) {
		split := dataset.Split{
			TrainFrom: f.d.ObservedFrom,
			TrainTo:   f.d.ObservedTo - 1,
			TestYear:  f.d.ObservedTo,
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bld, err := feature.NewBuilder(f.d, feature.Options{Groups: feature.AllGroups(), Standardize: true})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := bld.TrainSet(split); err != nil {
				b.Fatal(err)
			}
			if _, err := bld.TestSet(split); err != nil {
				b.Fatal(err)
			}
		}
	})
}
