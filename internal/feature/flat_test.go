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
		// X rows must be views into the backing: same values, shared storage.
		for i, row := range s.X {
			if len(row) != stride {
				t.Fatalf("row %d length %d != stride %d", i, len(row), stride)
			}
			for j, v := range row {
				if flat[i*stride+j] != v {
					t.Fatalf("row %d col %d: view %v != flat %v", i, j, v, flat[i*stride+j])
				}
			}
		}
		old := s.X[0][0]
		s.X[0][0] = old + 1
		if flat[0] != old+1 {
			t.Fatal("mutating a row view must write through to the flat backing")
		}
		s.X[0][0] = old
	}
}

func TestNewDenseRowCapacityClamped(t *testing.T) {
	s := NewDense([]string{"a", "b"}, 3, 2)
	// Appending to a full-capacity row view must reallocate, never bleed
	// into the next row's storage.
	row := append(s.X[0], 99)
	_ = row
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

func TestFlatNilForViewSets(t *testing.T) {
	s := &Set{Names: []string{"a"}, X: [][]float64{{1}, {2}}}
	if flat, stride := s.Flat(); flat != nil || stride != 0 {
		t.Fatalf("hand-assembled set reported a flat backing: %v, %d", flat, stride)
	}
}

func TestMatrixMemcpyMatchesRowCopy(t *testing.T) {
	net, split := flatTestNet(t)
	b, err := NewBuilder(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.TrainSet(split)
	if err != nil {
		t.Fatal(err)
	}
	// View-set twin of the same rows: forces the row-by-row path.
	view := &Set{Names: tr.Names, X: tr.X, Label: tr.Label}
	md := tr.Matrix()
	mv := view.Matrix()
	if md.Rows != mv.Rows || md.Cols != mv.Cols {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", md.Rows, md.Cols, mv.Rows, mv.Cols)
	}
	for i := range md.Data {
		if md.Data[i] != mv.Data[i] {
			t.Fatalf("element %d: memcpy path %v != row path %v", i, md.Data[i], mv.Data[i])
		}
	}
	// The matrix must be a copy, not an alias of the backing.
	md.Data[0] = md.Data[0] + 5
	if flat, _ := tr.Flat(); flat[0] == md.Data[0] {
		t.Fatal("Matrix must copy, not alias, the flat backing")
	}
}
