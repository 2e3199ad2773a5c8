package dataset

import (
	"fmt"
	"strings"
	"testing"
)

func TestDistrictOf(t *testing.T) {
	cases := []struct {
		id       string
		district string
		ok       bool
	}{
		{"METRO-D007-0001234", "D007", true},
		{"A-D0-0", "D0", true},
		{"a-b-c-D12-99", "D12", true}, // hyphenated region
		{"METRO-D007-", "", false},    // empty sequence
		{"METRO-D007-12x4", "", false},
		{"METRO-007-1234", "", false}, // district missing the D
		{"METRO-D-1234", "", false},   // D with no digits
		{"METRO-Dx7-1234", "", false},
		{"D007-1234", "", false}, // no region part
		{"-D007-1234", "", false},
		{"P123", "", false},
		{"", "", false},
	}
	for _, tc := range cases {
		d, ok := DistrictOf(tc.id)
		if d != tc.district || ok != tc.ok {
			t.Errorf("DistrictOf(%q) = %q, %v; want %q, %v", tc.id, d, ok, tc.district, tc.ok)
		}
	}
}

// districtNetwork builds a network whose pipes live in contiguous
// district blocks with the given per-district pipe counts, plus one
// failure on the first pipe of every district.
func districtNetwork(t *testing.T, counts []int) *Columns {
	t.Helper()
	var pipes []Pipe
	var fails []Failure
	seq := 0
	for d, n := range counts {
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("R-D%03d-%07d", d, seq)
			pipes = append(pipes, Pipe{
				ID: id, Class: ReticulationMain, Material: CICL, Coating: CoatingNone,
				DiameterMM: 100, LengthM: 10, LaidYear: 1960, Segments: 1,
			})
			if i == 0 {
				fails = append(fails, Failure{PipeID: id, Segment: 0, Year: 2005, Day: 1, Mode: ModeBreak})
			}
			seq++
		}
	}
	return mustRows("R", 2000, 2009, pipes, fails)
}

func TestSplitDistrictsPartitions(t *testing.T) {
	n := districtNetwork(t, []int{40, 10, 10, 30, 5, 5})
	shards, err := SplitDistricts(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("got %d shards, want 3", len(shards))
	}

	// Region names, conservation, ordering and district contiguity.
	var gotPipes, gotFails int
	var allIDs []string
	seenDistrict := map[string]int{}
	for i, sh := range shards {
		wantName := fmt.Sprintf("R/s%02d", i+1)
		if sh.Region != wantName {
			t.Errorf("shard %d region %q, want %q", i, sh.Region, wantName)
		}
		if sh.ObservedFrom != n.ObservedFrom || sh.ObservedTo != n.ObservedTo {
			t.Errorf("shard %d window [%d,%d], want [%d,%d]",
				i, sh.ObservedFrom, sh.ObservedTo, n.ObservedFrom, n.ObservedTo)
		}
		if sh.NumPipes() == 0 {
			t.Errorf("shard %d is empty", i)
		}
		gotPipes += sh.NumPipes()
		gotFails += sh.NumFailures()
		districts := map[string]bool{}
		for _, p := range sh.Pipes() {
			allIDs = append(allIDs, p.ID)
			d, _ := DistrictOf(p.ID)
			districts[d] = true
		}
		for d := range districts {
			if prev, dup := seenDistrict[d]; dup {
				t.Errorf("district %s split across shards %d and %d", d, prev, i)
			}
			seenDistrict[d] = i
		}
		// Every failure must reference a pipe this shard owns.
		for _, f := range sh.Failures() {
			if d, _ := DistrictOf(f.PipeID); seenDistrict[d] != i {
				t.Errorf("shard %d holds failure for foreign pipe %s", i, f.PipeID)
			}
		}
	}
	if gotPipes != n.NumPipes() || gotFails != n.NumFailures() {
		t.Fatalf("conservation: %d pipes / %d failures across shards, want %d / %d",
			gotPipes, gotFails, n.NumPipes(), n.NumFailures())
	}
	// Concatenating the shards in order must reproduce the original
	// pipe sequence exactly (contiguous-district grouping).
	for i, p := range n.Pipes() {
		if allIDs[i] != p.ID {
			t.Fatalf("pipe %d: concatenated order %s, original %s", i, allIDs[i], p.ID)
		}
	}
}

func TestSplitDistrictsBalance(t *testing.T) {
	// 12 equal districts into 4 shards: a balanced split is exactly 3
	// districts (75 pipes) each.
	counts := make([]int, 12)
	for i := range counts {
		counts[i] = 25
	}
	shards, err := SplitDistricts(districtNetwork(t, counts), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shards {
		if sh.NumPipes() != 75 {
			t.Errorf("shard %d has %d pipes, want 75", i, sh.NumPipes())
		}
	}
}

func TestSplitDistrictsErrors(t *testing.T) {
	n := districtNetwork(t, []int{5, 5})
	if _, err := SplitDistricts(n, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := SplitDistricts(n, 3); err == nil || !strings.Contains(err.Error(), "only 2 districts") {
		t.Errorf("k > districts: err %v", err)
	}

	plain := mustRows("P", 2000, 2009, []Pipe{{
		ID: "P123", Class: ReticulationMain, Material: CICL, Coating: CoatingNone,
		DiameterMM: 100, LengthM: 10, LaidYear: 1960, Segments: 1,
	}}, nil)
	if _, err := SplitDistricts(plain, 2); err == nil || !strings.Contains(err.Error(), "no district-structured ID") {
		t.Errorf("non-district IDs: err %v", err)
	}
}
