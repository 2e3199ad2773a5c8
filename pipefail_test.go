package pipefail

import (
	"bytes"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/colfmt"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feature"
)

func testNet(t *testing.T) *Network {
	t.Helper()
	net, err := GenerateRegion("A", 7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestGenerateRegionDeterminism(t *testing.T) {
	a := testNet(t)
	b := testNet(t)
	if a.NumPipes() != b.NumPipes() || a.NumFailures() != b.NumFailures() {
		t.Fatal("GenerateRegion not deterministic")
	}
	if _, err := GenerateRegion("Z", 1, 1); err == nil {
		t.Fatal("unknown region must error")
	}
	if _, err := GenerateRegion("A", 1, 0); err == nil {
		t.Fatal("bad scale must error")
	}
}

func TestSaveLoadNetwork(t *testing.T) {
	net := testNet(t)
	dir := filepath.Join(t.TempDir(), "net")
	if err := SaveNetwork(net, dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadNetwork(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPipes() != net.NumPipes() || got.NumFailures() != net.NumFailures() {
		t.Fatal("round trip changed the network")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	net := testNet(t)
	p, err := NewPipeline(net, WithSeed(3), WithESGenerations(15))
	if err != nil {
		t.Fatal(err)
	}
	if p.Split().TestYear != net.ObservedTo {
		t.Fatal("paper split must hold out the final year")
	}
	if len(p.FeatureNames()) == 0 {
		t.Fatal("no feature names")
	}
	ranking, err := p.TrainAndRank("DirectAUC-ES")
	if err != nil {
		t.Fatal(err)
	}
	if ranking.Len() == 0 || ranking.Len() > net.NumPipes() {
		t.Fatalf("ranking size %d", ranking.Len())
	}
	if auc := ranking.AUC(); auc < 0.55 {
		t.Fatalf("pipeline AUC = %v", auc)
	}
	if d1, d10 := ranking.DetectionAt(0.01), ranking.DetectionAt(0.10); d10 < d1 {
		t.Fatalf("detection must be monotone: %v vs %v", d1, d10)
	}
	if dl := ranking.DetectionAtLength(0.10); dl < 0 || dl > 1 {
		t.Fatalf("length detection %v", dl)
	}
	top := ranking.TopIDs(5)
	if len(top) != 5 {
		t.Fatalf("top ids %v", top)
	}
	seen := map[string]bool{}
	for _, id := range top {
		if seen[id] {
			t.Fatal("duplicate pipe in top list")
		}
		seen[id] = true
		if _, ok := net.RowOf(id); !ok {
			t.Fatalf("unknown pipe %s in ranking", id)
		}
	}
	curve := ranking.Curve(20)
	if len(curve) == 0 || curve[len(curve)-1].Y != 1 {
		t.Fatal("curve must reach full detection")
	}
}

func TestPipelineEveryModelRuns(t *testing.T) {
	net := testNet(t)
	p, err := NewPipeline(net, WithESGenerations(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Models() {
		ranking, err := p.TrainAndRank(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ranking.Model != name {
			t.Fatalf("ranking model %q", ranking.Model)
		}
		if a := ranking.AUC(); a < 0.3 || a > 1 {
			t.Fatalf("%s AUC %v out of plausible band", name, a)
		}
	}
}

func TestPipelineWithCustomSplit(t *testing.T) {
	net := testNet(t)
	split, err := dataset.NewSplit(net, 1998, 2004, 2005)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(net, WithSplit(split))
	if err != nil {
		t.Fatal(err)
	}
	if p.Split().TestYear != 2005 || p.Split().TrainTo != 2004 {
		t.Fatalf("split not honoured: %+v", p.Split())
	}
	ranking, err := p.TrainAndRank("Logistic")
	if err != nil {
		t.Fatal(err)
	}
	if ranking.TestYear != 2005 {
		t.Fatalf("ranking year %d", ranking.TestYear)
	}
}

func TestPersistedModelScoresThroughPipeline(t *testing.T) {
	net := testNet(t)
	p, err := NewPipeline(net, WithSeed(4), WithESGenerations(10))
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Train("RankSVM")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.SaveLinear(&buf, m, p.FeatureNames()); err != nil {
		t.Fatal(err)
	}
	loaded, meta, err := core.LoadLinear(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.FeatureNames) != len(p.FeatureNames()) {
		t.Fatal("feature schema lost in persistence")
	}
	r1, err := p.Rank(m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Rank(loaded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Scores {
		if r1.Scores[i] != r2.Scores[i] {
			t.Fatal("loaded model ranks differently")
		}
	}
}

func TestSelectModel(t *testing.T) {
	net := testNet(t)
	p, err := NewPipeline(net, WithSeed(5), WithESGenerations(8))
	if err != nil {
		t.Fatal(err)
	}
	best, aucs, err := p.SelectModel([]string{"Logistic", "Random", "Heuristic-Age"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(aucs) != 3 {
		t.Fatalf("aucs %v", aucs)
	}
	if best == "Random" {
		t.Fatalf("random selected as best: %v", aucs)
	}
	if aucs[best] < aucs["Random"] {
		t.Fatalf("winner %s has lower AUC than Random: %v", best, aucs)
	}
	// The winner can be trained directly.
	if _, err := p.TrainAndRank(best); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.SelectModel([]string{"bogus"}, 3); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestPipelineOptions(t *testing.T) {
	net := testNet(t)
	custom, err := NewPipeline(net, WithFeatureGroups(FeatureGroups{Age: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(custom.FeatureNames()) != 2 {
		t.Fatalf("age-only features: %v", custom.FeatureNames())
	}
	if _, err := NewPipeline(nil); err == nil {
		t.Fatal("nil network must error")
	}
	if _, err := custom.Train("bogus"); err == nil {
		t.Fatal("unknown model must error")
	}
}

// TestPipelineDataColumnarMatchesNetwork pins the cross-format contract at
// the facade level: a pipeline fed by a sniffed columnar dataset must rank
// exactly like one fed the in-memory network the dataset came from.
func TestPipelineDataColumnarMatchesNetwork(t *testing.T) {
	net := testNet(t)
	dir := filepath.Join(t.TempDir(), "net")
	if err := SaveNetwork(net, dir); err != nil {
		t.Fatal(err)
	}
	// Convert the CSV directory to a columnar one.
	col, err := OpenData(dir)
	if err != nil {
		t.Fatal(err)
	}
	colDir := filepath.Join(t.TempDir(), "col")
	if err := SaveNetwork(net, colDir); err != nil { // reuse dir creation
		t.Fatal(err)
	}
	if err := colfmt.WriteFile(filepath.Join(colDir, colfmt.DatasetFile), col); err != nil {
		t.Fatal(err)
	}

	dCol, columnar, err := colfmt.Open(colDir)
	if err != nil {
		t.Fatal(err)
	}
	if !columnar {
		t.Fatal("sniffer chose CSV for a dataset.col directory")
	}

	pNet, err := NewPipeline(net, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	pCol, err := NewPipelineData(dCol, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if pNet.Split() != pCol.Split() {
		t.Fatalf("default splits differ: %+v vs %+v", pNet.Split(), pCol.Split())
	}
	rNet, err := pNet.TrainAndRank("RankSVM")
	if err != nil {
		t.Fatal(err)
	}
	rCol, err := pCol.TrainAndRank("RankSVM")
	if err != nil {
		t.Fatal(err)
	}
	if rNet.AUC() != rCol.AUC() {
		t.Fatalf("AUC differs across formats: %v vs %v", rNet.AUC(), rCol.AUC())
	}
	if !reflect.DeepEqual(rNet.PipeIDs, rCol.PipeIDs) {
		t.Fatal("ranking order differs across formats")
	}
	if !reflect.DeepEqual(rNet.Scores, rCol.Scores) {
		t.Fatal("scores differ across formats")
	}
}

// TestHeuristicsSkipTrainingSet: fitting the heuristic baselines never
// builds the pipe-year matrix (it allocates a fraction of one), a learned
// model fitted after them ranks exactly as on a fresh pipeline, no
// training set stays reachable from the pipeline or its fitted models
// once a fit returns, and the feature names never change.
func TestHeuristicsSkipTrainingSet(t *testing.T) {
	net := testNet(t)
	p, err := NewPipeline(net, WithESGenerations(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := feature.NewBuilder(net, feature.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := b.TrainSet(p.Split())
	if err != nil {
		t.Fatal(err)
	}
	trainBytes := uint64(ref.Len() * ref.Dim() * 8)
	names := p.FeatureNames()
	if !reflect.DeepEqual(names, ref.Names) {
		t.Fatal("pipeline feature names differ from the training set's")
	}
	for _, name := range []string{"Heuristic-Age", "Heuristic-Length", "Random"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := p.Train(name)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= trainBytes/4 {
			t.Fatalf("%s fit allocated %d bytes; the training matrix is %d", name, got, trainBytes)
		}
		if _, err := p.Rank(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	m, err := p.Train("Logistic")
	if err != nil {
		t.Fatal(err)
	}
	if sets := reachableSets(p, m); len(sets) != 1 || sets[0] != p.test {
		t.Fatalf("%d feature sets reachable from the pipeline and its model after the fit, want only the test set", len(sets))
	}
	got, err := p.Rank(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.FeatureNames(), names) {
		t.Fatal("feature names changed across fits")
	}
	fresh, err := NewPipeline(net, WithESGenerations(8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.TrainAndRank("Logistic")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Logistic ranking after heuristic fits differs from a fresh pipeline's")
	}
}

// reachableSets walks everything reachable from roots through pointers,
// interfaces, structs, slices, arrays and maps (not closures), and returns
// each distinct *feature.Set it meets.
func reachableSets(roots ...any) []*feature.Set {
	setType := reflect.TypeOf((*feature.Set)(nil))
	seen := make(map[uintptr]bool)
	var sets []*feature.Set
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if v.Type() == setType {
				sets = append(sets, (*feature.Set)(v.UnsafePointer()))
			}
			walk(v.Elem())
		case reflect.Interface:
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			switch v.Type().Elem().Kind() {
			case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
			}
		case reflect.Map:
			it := v.MapRange()
			for it.Next() {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	for _, r := range roots {
		walk(reflect.ValueOf(r))
	}
	return sets
}
