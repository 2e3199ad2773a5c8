package dataset

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPipesCSVRoundTrip(t *testing.T) {
	in := testNetwork().Pipes()
	var buf bytes.Buffer
	if err := WritePipes(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadPipes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestFailuresCSVRoundTrip(t *testing.T) {
	in := testNetwork().Failures()
	var buf bytes.Buffer
	if err := WriteFailures(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFailures(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestReadPipesRejectsBadHeader(t *testing.T) {
	csv := "id,wrong\nP1,2\n"
	if _, err := ReadPipes(strings.NewReader(csv)); err == nil {
		t.Fatal("bad header must error")
	}
}

func TestReadPipesRejectsBadField(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePipes(&buf, testNetwork().Pipes()); err != nil {
		t.Fatal(err)
	}
	// Corrupt the diameter of the first data row.
	s := buf.String()
	s = strings.Replace(s, "375", "not-a-number", 1)
	_, err := ReadPipes(strings.NewReader(s))
	if err == nil || !strings.Contains(err.Error(), "diameter_mm") {
		t.Fatalf("want diameter parse error, got %v", err)
	}
}

// pipeRow renders one pipe data row under the canonical header, with
// field overrides by column name — the helper behind the parser
// hardening tests (non-finite floats, duplicate/empty IDs).
func pipeRow(t *testing.T, overrides map[string]string) string {
	t.Helper()
	base := map[string]string{
		"id": "P1", "class": "CWM", "material": "CICL", "coating": "NONE",
		"diameter_mm": "375", "length_m": "100", "laid_year": "1970",
		"soil_corrosivity": "high", "soil_expansivity": "low",
		"soil_geology": "clay", "soil_map": "Z1", "dist_traffic_m": "5",
		"x": "0", "y": "0", "segments": "4",
	}
	for k, v := range overrides {
		if _, ok := base[k]; !ok {
			t.Fatalf("unknown column %q", k)
		}
		base[k] = v
	}
	cells := make([]string, len(pipeHeader))
	for i, h := range pipeHeader {
		cells[i] = base[h]
	}
	return strings.Join(cells, ",") + "\n"
}

func TestReadPipesRejectsNonFiniteFloats(t *testing.T) {
	header := strings.Join(pipeHeader, ",") + "\n"
	for _, tc := range []struct{ field, value string }{
		{"diameter_mm", "NaN"},
		{"length_m", "+Inf"},
		{"dist_traffic_m", "-Inf"},
		{"x", "1e999"}, // overflows to +Inf with an ErrRange
	} {
		in := header + pipeRow(t, map[string]string{tc.field: tc.value})
		_, err := ReadPipes(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s=%s: want parse error naming the field, got %v", tc.field, tc.value, err)
		}
	}
}

func TestReadPipesRejectsDuplicateID(t *testing.T) {
	in := strings.Join(pipeHeader, ",") + "\n" + pipeRow(t, nil) + pipeRow(t, nil)
	_, err := ReadPipes(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "duplicate pipe ID") {
		t.Fatalf("want duplicate-ID error, got %v", err)
	}
}

func TestReadPipesRejectsEmptyID(t *testing.T) {
	in := strings.Join(pipeHeader, ",") + "\n" + pipeRow(t, map[string]string{"id": ""})
	_, err := ReadPipes(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "empty pipe id") {
		t.Fatalf("want empty-ID error, got %v", err)
	}
}

func TestReadFailuresRejectsBadHeaderAndField(t *testing.T) {
	if _, err := ReadFailures(strings.NewReader("nope\n")); err == nil {
		t.Fatal("bad header must error")
	}
	good := "pipe_id,segment,year,day,mode\nP1,x,2000,1,BREAK\n"
	if _, err := ReadFailures(strings.NewReader(good)); err == nil {
		t.Fatal("bad segment must error")
	}
}

func TestSaveLoadDirRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "regionT")
	n := testNetwork()
	if err := SaveDir(n, dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Region != "T" || got.ObservedFrom != 1998 || got.ObservedTo != 2009 {
		t.Fatalf("meta mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Pipes(), n.Pipes()) {
		t.Fatal("pipes differ after round trip")
	}
	if !reflect.DeepEqual(got.Failures(), n.Failures()) {
		t.Fatal("failures differ after round trip")
	}
}

func TestLoadDirMissing(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing dir must error")
	}
}

func TestLoadDirRejectsInvalidNetwork(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bad")
	pipes := []Pipe{{ID: "P1", Class: ReticulationMain, Material: PVC,
		Coating: CoatingNone, DiameterMM: 100, LengthM: 10, LaidYear: 1990, Segments: 1}}
	fails := []Failure{{PipeID: "GHOST", Segment: 0, Year: 2000, Day: 1, Mode: ModeBreak}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(io.Writer) error{
		"pipes.csv":    func(w io.Writer) error { return WritePipes(w, pipes) },
		"failures.csv": func(w io.Writer) error { return WriteFailures(w, fails) },
		"meta.csv":     func(w io.Writer) error { return writeMeta(w, "bad", 1998, 2009) },
	} {
		if err := writeFile(filepath.Join(dir, name), write); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("invalid network must fail LoadDir validation")
	}
}
