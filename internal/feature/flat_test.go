package feature

import (
	"testing"

	"repro/internal/dataset"
)

// flatTestNet builds a small deterministic network for layout tests.
func flatTestNet(t *testing.T) (*dataset.Columns, dataset.Split) {
	t.Helper()
	net := buildNet()
	return net, mustSplit(t, net)
}

func TestBuilderSetsAreDense(t *testing.T) {
	net, split := flatTestNet(t)
	b, err := NewBuilder(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.TrainSet(split)
	if err != nil {
		t.Fatal(err)
	}
	te, err := b.TestSet(split)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Set{tr, te} {
		flat, stride := s.Flat()
		if flat == nil {
			t.Fatal("builder set must have a flat backing")
		}
		if stride != s.Dim() {
			t.Fatalf("stride %d != dim %d", stride, s.Dim())
		}
		if len(flat) != s.Len()*stride {
			t.Fatalf("flat length %d != %d rows x %d", len(flat), s.Len(), stride)
		}
		// Row views are the backing itself: shared storage, not a copy.
		for i := range s.Label {
			if row := s.Row(i, nil); len(row) != stride || &row[0] != &flat[i*stride] {
				t.Fatalf("row %d is not a %d-wide view of the backing", i, stride)
			}
		}
	}
}

// TestNewDenseRowCapacityClamped: a Row view's capacity ends at its row,
// so appending to it reallocates instead of writing the next row.
func TestNewDenseRowCapacityClamped(t *testing.T) {
	s := NewDense([]string{"a", "b"}, 3, 2)
	row := s.Row(0, nil)
	if cap(row) != 2 {
		t.Fatalf("row view capacity %d, want 2", cap(row))
	}
	_ = append(row, 99)
	if s.flat[2] != 0 {
		t.Fatalf("append to row 0 overwrote row 1's backing: %v", s.flat)
	}
}

func TestNewDensePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero dim":      func() { NewDense(nil, 3, 0) },
		"negative rows": func() { NewDense(nil, -1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
