package dataset

// Sharding a district-structured network: the synthetic nation/metro
// presets lay pipes out as contiguous ID blocks per district
// (REGION-Dnnn-SEQ), which makes districts the natural unit for
// splitting one big network into independently served region shards.
// SplitDistricts cuts the district sequence into k contiguous groups of
// near-equal pipe count, so each shard keeps whole districts (spatial
// features like hotspot clustering stay intra-shard) and the
// concatenation of the shards is exactly the original network.

import (
	"fmt"
	"strings"
)

// DistrictOf extracts the district token from a district-structured
// pipe ID of the form <region>-D<digits>-<digits> (e.g.
// "metro-D007-0001234" → "D007"). The region part may itself contain
// hyphens; the district is the second-to-last hyphen-separated field.
// ok is false for IDs not in this shape.
func DistrictOf(id string) (district string, ok bool) {
	last := strings.LastIndexByte(id, '-')
	if last <= 0 {
		return "", false
	}
	seq := id[last+1:]
	if !allDigits(seq) {
		return "", false
	}
	prev := strings.LastIndexByte(id[:last], '-')
	if prev < 1 { // no separator, or an empty region part
		return "", false
	}
	district = id[prev+1 : last]
	if len(district) < 2 || district[0] != 'D' || !allDigits(district[1:]) {
		return "", false
	}
	return district, true
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// SplitDistricts partitions c into k regions along district
// boundaries. Districts are taken in first-appearance order (the
// presets generate them as contiguous pipe blocks) and dealt into k
// contiguous groups balanced by pipe count; each shard gets the region
// name "<region>/sNN" (NN = shard index from 01), its districts' pipes
// in original order, and exactly the failures of those pipes.
//
// Every pipe ID must be district-structured (see DistrictOf) and there
// must be at least k districts; either violation is an error, since a
// caller asking to shard a dataset that cannot be sharded should hear
// about it rather than silently serve one lopsided region.
func SplitDistricts(c *Columns, k int) ([]*Columns, error) {
	if k < 2 {
		return nil, fmt.Errorf("dataset: split into %d shards: need at least 2", k)
	}
	ids := c.Registry.ID
	// District list in first-appearance order, with each district's pipe
	// count. IDs arrive as contiguous blocks, so "last seen" catches the
	// common case without a map lookup per pipe.
	var (
		order  []string
		counts []int
		seen   = make(map[string]int)
		lastD  string
		lastIx = -1
	)
	for _, id := range ids {
		d, ok := DistrictOf(id)
		if !ok {
			return nil, fmt.Errorf("dataset: split %q: pipe %q has no district-structured ID", c.Region, id)
		}
		if d != lastD || lastIx < 0 {
			ix, ok := seen[d]
			if !ok {
				ix = len(order)
				seen[d] = ix
				order = append(order, d)
				counts = append(counts, 0)
			}
			lastD, lastIx = d, ix
		}
		counts[lastIx]++
	}
	if len(order) < k {
		return nil, fmt.Errorf("dataset: split %q into %d shards: only %d districts", c.Region, k, len(order))
	}

	// Deal districts into k contiguous groups, balancing pipe counts:
	// each group takes districts until it reaches its proportional share
	// of the remaining pipes, always leaving enough districts for the
	// remaining groups.
	groupOf := make(map[string]int, len(order))
	remaining := len(ids)
	di := 0
	for g := 0; g < k; g++ {
		target := remaining / (k - g)
		took, gotPipes := 0, 0
		for di < len(order) {
			// Leave one district for each group still to come; the last
			// group takes everything left.
			if left := len(order) - di; took > 0 && g < k-1 && left <= k-g-1 {
				break
			}
			if took > 0 && g < k-1 && gotPipes+counts[di]/2 >= target {
				break
			}
			groupOf[order[di]] = g
			gotPipes += counts[di]
			took++
			di++
		}
		remaining -= gotPipes
	}

	// Cut the shard regions in group order.
	shardRows := make([][]int32, k)
	for i, id := range ids {
		d, _ := DistrictOf(id)
		g := groupOf[d]
		shardRows[g] = append(shardRows[g], int32(i))
	}
	out := make([]*Columns, k)
	for g := range out {
		out[g] = c.selectRows(fmt.Sprintf("%s/s%02d", c.Region, g+1), shardRows[g])
	}
	return out, nil
}
