package serve

// The raw-body memo must be invisible: for every body, the first
// (decoding) call and every later (memoized) call return exactly what a
// plain json.NewDecoder decode returns, rejected bodies are never
// stored, the memo stays within memoMaxBytes, and a hit allocates
// nothing.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// planBodyCorpus mixes well-formed, exotic and malformed plan bodies:
// number forms, duplicate keys, trailing bytes, escapes, invalid UTF-8,
// type mismatches and truncated input.
var planBodyCorpus = []string{
	`{}`,
	`{"model":"Logistic","budget_km":5}`,
	`{"budget_km":5.0}`,
	`{"budget_km":5}`,
	`{"model":"Logistic","budget_km":2.5,"max_pipes":12,"inspection_per_km":9000,"failure_cost":120000,"max_spend":50000.25}`,
	`  {  "budget_km" :  3 ,
	     "max_pipes" : 4 }  `,
	`{"region":"B","budget_km":3}`,
	`{"budget_km":1e3}`,
	`{"budget_km":1.25e-2}`,
	`{"budget_km":-2.5}`,
	`{"budget_km":-0}`,
	`{"budget_km":-0.0}`,
	`{"budget_km":0.1234567890123456789}`,
	`{"budget_km":1.7976931348623157e308}`,
	`{"budget_km":5e-324}`,
	`{"budget_km":1e-30}`,
	`{"budget_km":123456789012345678901234567890}`,
	`{"budget_km":1,"budget_km":2}`, // duplicate key: last wins
	`{"unknown_number":12.5,"budget_km":3}`,
	`{"unknown_string":"x","budget_km":3}`,
	`{"model":""}`,
	`{"max_pipes":0}`,
	`{"max_pipes":-3}`,
	`{"max_spend":0}`,
	`{"budget_km":3} trailing garbage`, // one value per body
	`{"budget_km":3}{"budget_km":4}`,
	`{"budget_km":3} ]`,
	`{"budget_km":3}}`,
	"{\"budget_km\":3}\r\n\t ",
	`{"model":"a\"b"}`,
	`{"model":"café"}`,
	"{\"model\":\"caf\xc3\xa9\"}",
	"{\"model\":\"bad\xffutf8\"}",
	`{"model":null}`,
	`{"draining":true,"budget_km":1}`,
	`{"nested":{"x":1},"budget_km":1}`,
	`{"list":[1,2],"budget_km":1}`,
	`{"max_pipes":1.5}`,
	`{"max_pipes":1e2}`,
	`{"max_pipes":9007199254740993}`,
	`{"budget_km":"5"}`,
	`{"model":5}`,
	`{"budget_km":01}`,
	`{"budget_km":.5}`,
	`{"budget_km":5.}`,
	`{"budget_km":5e}`,
	`{"budget_km":+5}`,
	`{bad`,
	`{"a":}`,
	`[1]`,
	`"str"`,
	`42`,
	``,
	`{"budget_km":3`,
	`{"budget_km" 3}`,
	`{"budget_km":3 "max_pipes":1}`,
}

// bulkBodyCorpus is the plan corpus plus the bulk-only fields.
var bulkBodyCorpus = append(append([]string{}, planBodyCorpus...),
	`{"top":5}`,
	`{"top":0}`,
	`{"top":-3}`,
	`{"top":5.5}`,
	`{"top":"5"}`,
	`{"regions":[]}`,
	`{"regions":["A","B"]}`,
	`{"regions":[ "A" , "B" ]}`,
	`{"regions":["A"`,
	`{"regions":[1]}`,
	`{"regions":"A"}`,
	`{"regions":["a\"b"]}`,
	`{"pipe_ids":["P-1","P-2"],"top":9}`,
	`{"pipe_ids":[null]}`,
	`{"model":"Logistic","regions":["B","A"],"budget_km":3,"max_pipes":7}`,
	`{"unknown":["x"]}`,
	`{"unknown":true}`,
	`{"regions":["A"],"regions":["B"]}`,
	`{"region":5,"top":3}`,
)

// stdlibDecode is the reference: a plain encoding/json decode of the
// first value, refused when anything but JSON whitespace follows it.
func stdlibDecode[T any](body string) (*T, error) {
	v := new(T)
	dec := json.NewDecoder(strings.NewReader(body))
	if err := dec.Decode(v); err != nil {
		return nil, err
	}
	if strings.TrimLeft(body[dec.InputOffset():], " \t\r\n") != "" {
		return nil, errTrailingData
	}
	return v, nil
}

func checkMemoMatchesStdlib[T any, P interface {
	*T
	memoBytes() int
}](t *testing.T, corpus []string) {
	t.Helper()
	var bm bodyMemo[T, P]
	for _, body := range corpus {
		want, wantErr := stdlibDecode[T](body)
		before := bm.bytes
		for _, pass := range []string{"miss", "hit"} {
			got, err := bm.decode([]byte(body))
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s %q: error %v, want %v", pass, body, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %q: decoded %+v, want %+v", pass, body, got, want)
			}
		}
		_, stored := bm.m[body]
		if stored != (wantErr == nil) {
			t.Errorf("%q: stored=%v with decode error %v", body, stored, wantErr)
		}
		if wantErr != nil && bm.bytes != before {
			t.Errorf("%q: rejected body changed the accounted bytes %d -> %d", body, before, bm.bytes)
		}
	}
}

func TestBodyMemoMatchesStdlib(t *testing.T) {
	t.Run("bulk", func(t *testing.T) { checkMemoMatchesStdlib[bulkRequest](t, bulkBodyCorpus) })
}

// TestParsePlanFastSubsetOfStdlib: plan bodies, decoded on a miss and
// served from the memo on a hit, agree with encoding/json on every
// corpus body, accepted or rejected.
func TestParsePlanFastSubsetOfStdlib(t *testing.T) {
	checkMemoMatchesStdlib[planRequest](t, planBodyCorpus)
}

// TestParsePlanFastValues pins the decoded fields of a full plan body
// against literal values rather than against encoding/json, and checks
// that a repeated body returns the shared memoized value.
func TestParsePlanFastValues(t *testing.T) {
	var bm bodyMemo[planRequest, *planRequest]
	body := []byte(`{"model":"Logistic","region":"B","budget_km":2.5,"max_pipes":12,"inspection_per_km":9000,"failure_cost":1.2e5,"max_spend":50000.25}`)
	pr, err := bm.decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Model != "Logistic" || pr.Region != "B" || pr.BudgetKM != 2.5 || pr.MaxPipes != 12 {
		t.Fatalf("decoded %+v", pr)
	}
	if pr.InspectionPerKM == nil || *pr.InspectionPerKM != 9000 ||
		pr.FailureCost == nil || *pr.FailureCost != 120000 ||
		pr.MaxSpend == nil || *pr.MaxSpend != 50000.25 {
		t.Fatalf("decoded priced fields %v %v %v", pr.InspectionPerKM, pr.FailureCost, pr.MaxSpend)
	}
	again, err := bm.decode(body)
	if err != nil || again != pr {
		t.Fatalf("repeat decode = %p, %v; want the memoized %p", again, err, pr)
	}
	bare, err := bm.decode([]byte(`{"budget_km":5}`))
	if err != nil {
		t.Fatal(err)
	}
	if bare.InspectionPerKM != nil || bare.FailureCost != nil || bare.MaxSpend != nil {
		t.Fatalf("absent priced fields decoded as set: %+v", bare)
	}
}

// TestBodyMemoByteBound feeds 10k distinct ~1 KiB bodies — several times
// the bound — and checks the accounting never passes memoMaxBytes and
// always equals the charge of the entries actually held.
func TestBodyMemoByteBound(t *testing.T) {
	var bm bodyMemo[bulkRequest, *bulkRequest]
	pad := strings.Repeat("x", 1000)
	cleared := false
	for i := 0; i < 10000; i++ {
		body := fmt.Sprintf(`{"model":"%s","regions":["A","B"],"top":%d}`, pad, i)
		if _, err := bm.decode([]byte(body)); err != nil {
			t.Fatal(err)
		}
		if bm.bytes > memoMaxBytes {
			t.Fatalf("after %d bodies the memo holds %d bytes, bound %d", i+1, bm.bytes, memoMaxBytes)
		}
		if len(bm.m) < i+1 {
			cleared = true
		}
	}
	if !cleared {
		t.Fatal("10k bodies never filled the memo; the test does not exercise the bound")
	}
	sum := 0
	for k, v := range bm.m {
		sum += len(k) + v.memoBytes() + memoEntryBytes
	}
	if sum != bm.bytes {
		t.Fatalf("accounted %d bytes, entries charge %d", bm.bytes, sum)
	}
}

// TestBodyMemoConcurrent races misses and hits on shared bodies; run
// under -race it checks the locking, and every caller must see the
// stdlib's decode.
func TestBodyMemoConcurrent(t *testing.T) {
	var bm bodyMemo[planRequest, *planRequest]
	bodies := planBodyCorpus[:8]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				body := bodies[(g+i)%len(bodies)]
				want, _ := stdlibDecode[planRequest](body)
				got, err := bm.decode([]byte(body))
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("body %q: got %+v, %v", body, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBodyMemoHitZeroAlloc: a memoized body resolves without touching
// the heap — the property the cached plan and bulk paths rely on.
func TestBodyMemoHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate runs without -race: race instrumentation inflates counts")
	}
	var pm bodyMemo[planRequest, *planRequest]
	var bm bodyMemo[bulkRequest, *bulkRequest]
	plan := []byte(`{"model":"Heuristic-Age","budget_km":10,"max_pipes":25,"max_spend":40000}`)
	bulk := []byte(`{"model":"Heuristic-Age","top":25,"regions":["A","B"],"pipe_ids":["P-1"]}`)
	if _, err := pm.decode(plan); err != nil {
		t.Fatal(err)
	}
	if _, err := bm.decode(bulk); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := pm.decode(plan); err != nil {
			t.Fatal(err)
		}
		if _, err := bm.decode(bulk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("memo hits allocated %.1f times per run, want 0", allocs)
	}
}

// TestOversizedBodiesRejected posts 2 MiB bodies to every memoized
// route, with and without a declared Content-Length: each must be
// refused with 413 before decoding. A body of exactly the limit still
// decodes.
func TestOversizedBodiesRejected(t *testing.T) {
	_, ts := newTestServer(t)
	huge := `{"model":"Heuristic-Age","budget_km":1}` + strings.Repeat(" ", 2<<20)
	for _, path := range []string{"/api/plan", "/api/bulk/rank", "/api/bulk/plan"} {
		for _, chunked := range []bool{false, true} {
			// A plain io.Reader hides the length, so the client streams
			// the body chunked and the server learns its size by reading.
			var body io.Reader = strings.NewReader(huge)
			if chunked {
				body = io.MultiReader(body)
			}
			resp, err := http.Post(ts.URL+path, "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s (chunked=%v): status %d, want 413", path, chunked, resp.StatusCode)
			}
		}
	}
	atLimit := `{"model":"Heuristic-Age","budget_km":1}`
	atLimit += strings.Repeat(" ", bufPoolMax-len(atLimit))
	resp, err := http.Post(ts.URL+"/api/plan", "application/json", io.MultiReader(strings.NewReader(atLimit)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body of exactly %d bytes: status %d, want 200", bufPoolMax, resp.StatusCode)
	}
}

// memoHas reports whether body is stored in bm.
func memoHas[T any, P interface {
	*T
	memoBytes() int
}](bm *bodyMemo[T, P], body string) bool {
	bm.mu.RLock()
	defer bm.mu.RUnlock()
	_, ok := bm.m[body]
	return ok
}

// TestPlanAndBulkRejectTrailingData: a plan or bulk body holding more
// than one JSON value is a 400 and never enters the memo; a trailing
// newline is still accepted.
func TestPlanAndBulkRejectTrailingData(t *testing.T) {
	s, ts := newTestServer(t)
	const valid = `{"model":"Heuristic-Age","budget_km":1}`
	for _, path := range []string{"/api/plan", "/api/bulk/rank", "/api/bulk/plan"} {
		for _, tc := range []struct {
			body string
			code int
		}{
			{valid + ` garbage`, http.StatusBadRequest},
			{valid + valid, http.StatusBadRequest},
			{valid + "\n" + valid, http.StatusBadRequest},
			{valid + `]`, http.StatusBadRequest},
			{valid + "\n", http.StatusOK},
		} {
			code, resp, err := post(ts.URL+path, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			if code != tc.code {
				t.Errorf("%s %q: status %d %s, want %d", path, tc.body, code, resp, tc.code)
			}
			stored := memoHas(&s.bulkBodies, tc.body)
			if path == "/api/plan" {
				stored = memoHas(&s.planBodies, tc.body)
			}
			if stored != (tc.code == http.StatusOK) {
				t.Errorf("%s %q: stored in the memo = %v", path, tc.body, stored)
			}
		}
	}
}
