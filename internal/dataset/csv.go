package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The CSV schema mirrors the two registries a utility exports: a pipe table
// and a work-order (failure) table. Headers are written and required so
// files remain self-describing.

var pipeHeader = []string{
	"id", "class", "material", "coating", "diameter_mm", "length_m",
	"laid_year", "soil_corrosivity", "soil_expansivity", "soil_geology",
	"soil_map", "dist_traffic_m", "x", "y", "segments",
}

var failureHeader = []string{"pipe_id", "segment", "year", "day", "mode"}

// WritePipes writes the pipe table as CSV.
func WritePipes(w io.Writer, pipes []Pipe) error {
	return writePipes(w, len(pipes), func(i int, p *Pipe) { *p = pipes[i] })
}

// writePipes writes n pipe rows as CSV, assembling row i with at, so a
// caller holding columns never materializes the rows.
func writePipes(w io.Writer, n int, at func(i int, p *Pipe)) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(pipeHeader); err != nil {
		return fmt.Errorf("dataset: write pipe header: %w", err)
	}
	var p Pipe
	var rec [15]string
	for i := 0; i < n; i++ {
		at(i, &p)
		rec = [15]string{
			p.ID,
			p.Class.String(),
			string(p.Material),
			string(p.Coating),
			formatFloat(p.DiameterMM),
			formatFloat(p.LengthM),
			strconv.Itoa(p.LaidYear),
			p.SoilCorrosivity,
			p.SoilExpansivity,
			p.SoilGeology,
			p.SoilMap,
			formatFloat(p.DistToTrafficM),
			formatFloat(p.X),
			formatFloat(p.Y),
			strconv.Itoa(p.Segments),
		}
		if err := cw.Write(rec[:]); err != nil {
			return fmt.Errorf("dataset: write pipe %q: %w", p.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// intern deduplicates the low-cardinality string fields (class levels,
// materials, soil factors, failure modes). encoding/csv backs every field
// of a record with one shared string; keeping such a substring alive pins
// the whole record's backing, and storing it per row multiplies the heap by
// the row count. Interning stores each distinct value once.
type intern map[string]string

func (t intern) get(s string) string {
	if v, ok := t[s]; ok {
		return v
	}
	v := strings.Clone(s)
	t[v] = v
	return v
}

// ReadPipes parses a pipe table written by WritePipes.
func ReadPipes(r io.Reader) ([]Pipe, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(pipeHeader)
	// The record slice is scratch: every retained string is cloned
	// (IDs) or interned (categoricals) in parsePipe, so the reader can
	// reuse both the slice and the field backing between rows.
	cr.ReuseRecord = true
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read pipe header: %w", err)
	}
	if err := checkHeader(head, pipeHeader); err != nil {
		return nil, err
	}
	var pipes []Pipe
	tab := make(intern, 64)
	// A duplicated pipe ID would make every ID-keyed structure downstream
	// (failure joins, rank indexes) silently drop rows, so the parser
	// rejects it here rather than deferring to region validation
	// (found by FuzzReadPipes).
	seen := make(map[string]int)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read pipe line %d: %w", line, err)
		}
		p, err := parsePipe(rec, tab)
		if err != nil {
			return nil, fmt.Errorf("dataset: pipe line %d: %w", line, err)
		}
		if prev, dup := seen[p.ID]; dup {
			return nil, fmt.Errorf("dataset: pipe line %d: duplicate pipe ID %q (first seen on line %d)", line, p.ID, prev)
		}
		seen[p.ID] = line
		pipes = append(pipes, p)
	}
	return pipes, nil
}

func parsePipe(rec []string, tab intern) (Pipe, error) {
	var p Pipe
	var err error
	if rec[0] == "" {
		return p, fmt.Errorf("empty pipe id")
	}
	p.ID = strings.Clone(rec[0])
	if p.Class, err = ParsePipeClass(rec[1]); err != nil {
		return p, err
	}
	p.Material = Material(tab.get(rec[2]))
	p.Coating = Coating(tab.get(rec[3]))
	if p.DiameterMM, err = parseFloat("diameter_mm", rec[4]); err != nil {
		return p, err
	}
	if p.LengthM, err = parseFloat("length_m", rec[5]); err != nil {
		return p, err
	}
	if p.LaidYear, err = parseInt("laid_year", rec[6]); err != nil {
		return p, err
	}
	p.SoilCorrosivity = tab.get(rec[7])
	p.SoilExpansivity = tab.get(rec[8])
	p.SoilGeology = tab.get(rec[9])
	p.SoilMap = tab.get(rec[10])
	if p.DistToTrafficM, err = parseFloat("dist_traffic_m", rec[11]); err != nil {
		return p, err
	}
	if p.X, err = parseFloat("x", rec[12]); err != nil {
		return p, err
	}
	if p.Y, err = parseFloat("y", rec[13]); err != nil {
		return p, err
	}
	if p.Segments, err = parseInt("segments", rec[14]); err != nil {
		return p, err
	}
	return p, nil
}

// WriteFailures writes the failure log as CSV.
func WriteFailures(w io.Writer, failures []Failure) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(failureHeader); err != nil {
		return fmt.Errorf("dataset: write failure header: %w", err)
	}
	var rec [5]string
	for i := range failures {
		f := &failures[i]
		rec = [5]string{
			f.PipeID,
			strconv.Itoa(f.Segment),
			strconv.Itoa(f.Year),
			strconv.Itoa(f.Day),
			string(f.Mode),
		}
		if err := cw.Write(rec[:]); err != nil {
			return fmt.Errorf("dataset: write failure %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadFailures parses a failure log written by WriteFailures.
func ReadFailures(r io.Reader) ([]Failure, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(failureHeader)
	cr.ReuseRecord = true
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read failure header: %w", err)
	}
	if err := checkHeader(head, failureHeader); err != nil {
		return nil, err
	}
	var out []Failure
	// Pipe IDs repeat across a failure log (a pipe fails many times), so
	// interning them both unpins the reader's reused backing array and
	// stores each ID once.
	tab := make(intern, 1024)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read failure line %d: %w", line, err)
		}
		var f Failure
		f.PipeID = tab.get(rec[0])
		if f.Segment, err = parseInt("segment", rec[1]); err != nil {
			return nil, fmt.Errorf("dataset: failure line %d: %w", line, err)
		}
		if f.Year, err = parseInt("year", rec[2]); err != nil {
			return nil, fmt.Errorf("dataset: failure line %d: %w", line, err)
		}
		if f.Day, err = parseInt("day", rec[3]); err != nil {
			return nil, fmt.Errorf("dataset: failure line %d: %w", line, err)
		}
		f.Mode = FailureMode(tab.get(rec[4]))
		out = append(out, f)
	}
	return out, nil
}

// SaveDir writes a region into dir as pipes.csv, failures.csv (sorted by
// Year, Day, PipeID) and meta.csv. The directory is created if needed.
func SaveDir(c *Columns, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: create %s: %w", dir, err)
	}
	if err := writeFile(filepath.Join(dir, "pipes.csv"), func(w io.Writer) error {
		return writePipes(w, c.NumPipes(), c.PipeAt)
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "failures.csv"), func(w io.Writer) error {
		return WriteFailures(w, c.Failures())
	}); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, "meta.csv"), func(w io.Writer) error {
		return writeMeta(w, c.Region, c.ObservedFrom, c.ObservedTo)
	})
}

// writeMeta writes the meta.csv table (region and observation window) in
// the format SaveDir emits and LoadDir expects.
func writeMeta(w io.Writer, region string, observedFrom, observedTo int) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"region", "observed_from", "observed_to"}); err != nil {
		return err
	}
	if err := cw.Write([]string{region, strconv.Itoa(observedFrom), strconv.Itoa(observedTo)}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// LoadDir reads a region previously written by SaveDir and validates it.
func LoadDir(dir string) (*Columns, error) {
	pipesF, err := os.Open(filepath.Join(dir, "pipes.csv"))
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer pipesF.Close()
	pipes, err := ReadPipes(pipesF)
	if err != nil {
		return nil, err
	}

	failsF, err := os.Open(filepath.Join(dir, "failures.csv"))
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer failsF.Close()
	fails, err := ReadFailures(failsF)
	if err != nil {
		return nil, err
	}

	metaF, err := os.Open(filepath.Join(dir, "meta.csv"))
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer metaF.Close()
	cr := csv.NewReader(metaF)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: read meta: %w", err)
	}
	if len(rows) != 2 || len(rows[1]) != 3 {
		return nil, fmt.Errorf("dataset: malformed meta.csv in %s", dir)
	}
	from, err := parseInt("observed_from", rows[1][1])
	if err != nil {
		return nil, err
	}
	to, err := parseInt("observed_to", rows[1][2])
	if err != nil {
		return nil, err
	}
	c, err := FromRows(rows[1][0], from, to, pipes, fails)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s failed validation: %w", dir, err)
	}
	return c, nil
}

func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: create %s: %w", path, err)
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dataset: close %s: %w", path, err)
	}
	return nil
}

func checkHeader(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("dataset: header has %d fields, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("dataset: header field %d is %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

func parseFloat(field, s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("field %s: %w", field, err)
	}
	// strconv accepts "NaN" and "Inf" spellings; no pipe attribute is
	// legitimately non-finite, and silently admitting them poisons every
	// downstream statistic (found by FuzzReadPipes).
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("field %s: non-finite value %q", field, s)
	}
	return v, nil
}

func parseInt(field, s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("field %s: %w", field, err)
	}
	return v, nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
