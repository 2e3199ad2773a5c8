package plan

// Prefix is the precomputed greedy-plan structure for one (candidate
// set, cost model) pair: candidates sorted by net-benefit density once,
// with cumulative prefix curves (total length, inspection cost,
// expected prevented failures), so a plan for an arbitrary Budget is a
// binary search over the curves plus a bounded scan of the greedy
// skip tail — instead of a full sort per request.
//
// Plan is proven byte-identical to Greedy over the same candidates and
// cost model (TestPrefixMatchesGreedyProperty): the sort uses the same
// stable comparator, the curves accumulate in the same order with the
// same floating-point operations, and the tail scan replays Greedy's
// loop body exactly from the first skipped item.

import "sort"

// prefixItem carries the per-candidate quantities Greedy computes on
// every call, frozen at build time.
type prefixItem struct {
	cost float64 // inspection cost under the cost model
	net  float64 // expected benefit − cost
}

// Prefix is immutable after BuildPrefix returns and safe for concurrent
// use by any number of goroutines.
type Prefix struct {
	cm   CostModel
	prev float64

	// cands is the candidate slice in greedy selection order (density
	// descending, ties by ID); items holds the matching cost/net pairs.
	cands []Candidate
	items []prefixItem

	// pos is the greedy horizon: the first index whose net benefit is
	// not positive. Greedy breaks there; no later item is ever selected.
	pos int

	// cum*[i] are the running totals after selecting cands[:i], built
	// with the same sequential additions Greedy performs, so the values
	// are bit-identical to its accumulator state at step i.
	cumLen  []float64
	cumCost []float64
	cumPrev []float64

	// minLenFrom[i] / minCostFrom[i] are suffix minima over the positive
	// horizon [i, pos): once the remaining budget cannot admit even the
	// smallest remaining item, the tail scan stops early. Floating-point
	// addition is monotone in the addend, so the early exit can never
	// skip an item Greedy would have selected.
	minLenFrom  []float64
	minCostFrom []float64
}

// BuildPrefix validates the candidates and cost model exactly as Greedy
// does, sorts once, and freezes the prefix curves. The input slice is
// not retained or mutated.
func BuildPrefix(cands []Candidate, cm CostModel) (*Prefix, error) {
	if err := validate(cands, cm); err != nil {
		return nil, err
	}
	prev := cm.preventionRate()
	px := &Prefix{
		cm:    cm,
		prev:  prev,
		cands: make([]Candidate, len(cands)),
		items: make([]prefixItem, len(cands)),
	}
	copy(px.cands, cands)

	// Identical ordering to Greedy: stable sort on (density desc, ID asc).
	density := make([]float64, len(cands))
	for i, c := range px.cands {
		cost := c.LengthM / 1000 * cm.InspectionPerKM
		net := c.FailProb*prev*cm.FailureCost - cost
		density[i] = net / c.LengthM
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if density[a] != density[b] {
			return density[a] > density[b]
		}
		return px.cands[a].ID < px.cands[b].ID
	})
	sorted := make([]Candidate, len(cands))
	for i, idx := range order {
		sorted[i] = px.cands[idx]
	}
	px.cands = sorted
	for i, c := range px.cands {
		cost := c.LengthM / 1000 * cm.InspectionPerKM
		px.items[i] = prefixItem{cost: cost, net: c.FailProb*prev*cm.FailureCost - cost}
	}

	// Greedy's break point: the first non-positive net (NaN nets compare
	// false and are passed over, exactly as Greedy's `net <= 0` does).
	px.pos = len(px.items)
	for i := range px.items {
		if px.items[i].net <= 0 {
			px.pos = i
			break
		}
	}

	px.cumLen = make([]float64, px.pos+1)
	px.cumCost = make([]float64, px.pos+1)
	px.cumPrev = make([]float64, px.pos+1)
	for i := 0; i < px.pos; i++ {
		px.cumLen[i+1] = px.cumLen[i] + px.cands[i].LengthM
		px.cumCost[i+1] = px.cumCost[i] + px.items[i].cost
		px.cumPrev[i+1] = px.cumPrev[i] + px.cands[i].FailProb*prev
	}

	px.minLenFrom = make([]float64, px.pos+1)
	px.minCostFrom = make([]float64, px.pos+1)
	if px.pos > 0 {
		const inf = 1.797693134862315708145274237317043567981e308 // MaxFloat64
		px.minLenFrom[px.pos], px.minCostFrom[px.pos] = inf, inf
		for i := px.pos - 1; i >= 0; i-- {
			px.minLenFrom[i] = min(px.minLenFrom[i+1], px.cands[i].LengthM)
			px.minCostFrom[i] = min(px.minCostFrom[i+1], px.items[i].cost)
		}
	}
	return px, nil
}

// validate applies Greedy's exact input checks so a Prefix-backed
// caller reports the same errors the per-request path did.
func validate(cands []Candidate, cm CostModel) error {
	if err := cm.Validate(); err != nil {
		return err
	}
	for _, c := range cands {
		if c.FailProb < 0 || c.FailProb > 1 {
			return candProbErr(c)
		}
		if c.LengthM <= 0 {
			return candLenErr(c)
		}
	}
	return nil
}

// CostModel returns the cost model the prefix was built for.
func (px *Prefix) CostModel() CostModel { return px.cm }

// Len returns the number of candidates behind the prefix.
func (px *Prefix) Len() int { return len(px.cands) }

// Order returns the candidates in greedy selection order, the order
// Select's indices refer to. Callers must not mutate it.
func (px *Prefix) Order() []Candidate { return px.cands }

// Selection is a greedy plan given as positions in Order — the first K
// candidates, then the ones at the Tail indices — with its Selected
// left nil.
type Selection struct {
	K    int
	Tail []int
	Plan
}

// Plan produces the plan Greedy would build for b — byte-identical
// selection, order and economics — in O(log n + tail) instead of
// O(n log n). The returned Plan's Selected slice may alias the prefix's
// internal (immutable) candidate array; callers must not mutate it.
func (px *Prefix) Plan(b Budget) (*Plan, error) {
	sel, err := px.Select(b, nil)
	if err != nil {
		return nil, err
	}
	p := &sel.Plan
	// Full-capacity slice: a tail append copies instead of writing into
	// the shared array.
	selected := px.cands[:sel.K:sel.K]
	for _, i := range sel.Tail {
		selected = append(selected, px.cands[i])
	}
	if len(selected) > 0 {
		p.Selected = selected
	}
	return p, nil
}

// Select is Plan's selection without its allocations: the tail indices
// are appended to tail[:0], scratch the caller may reuse.
func (px *Prefix) Select(b Budget, tail []int) (Selection, error) {
	if b.MaxLengthM <= 0 && b.MaxCount <= 0 && b.MaxSpend <= 0 {
		return Selection{}, ErrNoBudget
	}

	// The longest all-selected prefix: every item before k passes all
	// three of Greedy's checks, found by binary search over the curves.
	// cum[i+1] is bit-identical to Greedy's `running + item` sum, and
	// the curves are non-decreasing, so the predicates are monotone.
	limit := px.pos
	if b.MaxCount > 0 && b.MaxCount < limit {
		limit = b.MaxCount
	}
	k := limit
	if b.MaxLengthM > 0 {
		if kl := sort.Search(px.pos, func(i int) bool { return px.cumLen[i+1] > b.MaxLengthM }); kl < k {
			k = kl
		}
	}
	if b.MaxSpend > 0 {
		if ks := sort.Search(px.pos, func(i int) bool { return px.cumCost[i+1] > b.MaxSpend }); ks < k {
			k = ks
		}
	}

	sel := Selection{K: k, Tail: tail[:0], Plan: Plan{
		TotalLengthM:      px.cumLen[k],
		InspectionCost:    px.cumCost[k],
		ExpectedPrevented: px.cumPrev[k],
	}}

	// The prefix ended on the net-benefit horizon or the count cap only
	// if k reached them: Greedy selects nothing further in either case.
	// Otherwise item k was a length/spend skip and Greedy keeps
	// scanning — replay its loop body exactly from there (the running
	// totals here equal its accumulators bit for bit).
	if k < px.pos && (b.MaxCount <= 0 || k < b.MaxCount) {
		for i := k; i < px.pos; i++ {
			// Early exit: no remaining item fits the exhausted dimension.
			if (b.MaxLengthM > 0 && sel.TotalLengthM+px.minLenFrom[i] > b.MaxLengthM) ||
				(b.MaxSpend > 0 && sel.InspectionCost+px.minCostFrom[i] > b.MaxSpend) {
				break
			}
			c := px.cands[i]
			if b.MaxLengthM > 0 && sel.TotalLengthM+c.LengthM > b.MaxLengthM {
				continue
			}
			if b.MaxCount > 0 && k+len(sel.Tail) >= b.MaxCount {
				break
			}
			if b.MaxSpend > 0 && sel.InspectionCost+px.items[i].cost > b.MaxSpend {
				continue
			}
			sel.Tail = append(sel.Tail, i)
			sel.TotalLengthM += c.LengthM
			sel.InspectionCost += px.items[i].cost
			sel.ExpectedPrevented += c.FailProb * px.prev
		}
	}

	sel.ExpectedBenefit = sel.ExpectedPrevented * px.cm.FailureCost
	sel.ExpectedNet = sel.ExpectedBenefit - sel.InspectionCost
	return sel, nil
}
