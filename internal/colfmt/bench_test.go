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
	d, _, err := synthetic.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		b.Fatal(err)
	}
	var pbuf, fbuf bytes.Buffer
	if err := dataset.WritePipes(&pbuf, d.Pipes()); err != nil {
		b.Fatal(err)
	}
	if err := dataset.WriteFailures(&fbuf, d.Failures()); err != nil {
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
			net, err := dataset.FromRows(f.d.Region, f.d.ObservedFrom, f.d.ObservedTo, pipes, fails)
			if err != nil {
				b.Fatal(err)
			}
			if err := Write(io.Discard, net); err != nil {
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

// BenchmarkLiveRebuild measures one live retrain's data path: extend the
// loaded region with 1k live events (900 failures, 100 renewals) and
// build the pipeline over the result, as pipefail.NewPipelineData does
// (builder, scaler fit, test set).
func BenchmarkLiveRebuild(b *testing.B) {
	benchEach(b, func(b *testing.B, f *benchFixture) {
		fails, renewals := liveEvents(f.d, 900, 100)
		split := dataset.Split{TrainFrom: f.d.ObservedFrom, TrainTo: f.d.ObservedTo - 1, TestYear: f.d.ObservedTo}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ext := f.d.ExtendLive(fails, renewals)
			bld, err := feature.NewBuilder(ext, feature.Options{Standardize: true})
			if err != nil {
				b.Fatal(err)
			}
			if err := bld.Fit(split); err != nil {
				b.Fatal(err)
			}
			if _, err := bld.TestSet(split); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// liveEvents spreads nf failures and nr renewals evenly over the
// registry, all in the last training year.
func liveEvents(d *dataset.Columns, nf, nr int) ([]dataset.Failure, []dataset.Renewal) {
	year := d.ObservedTo - 1
	fails := make([]dataset.Failure, nf)
	for k := range fails {
		i := k * d.NumPipes() / nf
		fails[k] = dataset.Failure{PipeID: d.Registry.ID[i], Year: year, Day: 1 + k%365, Mode: dataset.ModeBreak}
	}
	renewals := make([]dataset.Renewal, nr)
	for k := range renewals {
		renewals[k] = dataset.Renewal{PipeID: d.Registry.ID[(2*k+1)*d.NumPipes()/(2*nr)], Year: year}
	}
	return fails, renewals
}
