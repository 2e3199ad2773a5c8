package synthetic

import (
	"strings"
	"testing"
)

func scaledPreset(t *testing.T, name string, seed int64, scale float64) Config {
	t.Helper()
	cfg, err := Preset(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = cfg.Scaled(scale)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestNationPresets(t *testing.T) {
	for _, name := range []string{"metro", "nation"} {
		cfg, err := Preset(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s preset invalid: %v", name, err)
		}
		if cfg.Districts <= 1 || cfg.ClimateZones <= 1 {
			t.Fatalf("%s preset should be hierarchical, got Districts=%d ClimateZones=%d",
				name, cfg.Districts, cfg.ClimateZones)
		}
	}

	// A small slice of the metro preset: hierarchical IDs, valid network,
	// districts in contiguous blocks.
	cfg := scaledPreset(t, "metro", 5, 0.01)
	net, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	lastDistrict := ""
	seen := map[string]bool{}
	for _, p := range net.Pipes() {
		parts := strings.Split(p.ID, "-")
		if len(parts) != 3 || !strings.HasPrefix(parts[1], "D") {
			t.Fatalf("pipe ID %q lacks the district component", p.ID)
		}
		d := parts[1]
		if d != lastDistrict && seen[d] {
			t.Fatalf("district %s appears in non-contiguous registry blocks", d)
		}
		seen[d] = true
		lastDistrict = d
	}
	if len(seen) < 2 {
		t.Fatalf("expected multiple districts, got %d", len(seen))
	}
}

// TestClimateZonesCorrelateSoil checks the hierarchical soil structure:
// with a climate overlay, soil factors inside one climate zone concentrate
// on the zone's dominant level, so the per-zone entropy of the soil map
// must drop relative to the flat generator.
func TestClimateZonesCorrelateSoil(t *testing.T) {
	base := scaledPreset(t, "metro", 11, 0.02)
	flat := base
	flat.ClimateZones = 0

	dominantShare := func(cfg Config) float64 {
		net, _, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Partition pipes into a coarse spatial grid matching the climate
		// grid and measure how dominant each cell's most common
		// corrosivity level is.
		const g = 6
		counts := make([]map[string]int, g*g)
		sideM := 0.0
		for _, p := range net.Pipes() {
			if p.X > sideM {
				sideM = p.X
			}
			if p.Y > sideM {
				sideM = p.Y
			}
		}
		for _, p := range net.Pipes() {
			cx, cy := int(p.X/sideM*g), int(p.Y/sideM*g)
			if cx >= g {
				cx = g - 1
			}
			if cy >= g {
				cy = g - 1
			}
			cell := cx*g + cy
			if counts[cell] == nil {
				counts[cell] = map[string]int{}
			}
			counts[cell][p.SoilCorrosivity]++
		}
		share, cells := 0.0, 0
		for _, m := range counts {
			total, best := 0, 0
			for _, c := range m {
				total += c
				if c > best {
					best = c
				}
			}
			if total >= 20 {
				share += float64(best) / float64(total)
				cells++
			}
		}
		if cells == 0 {
			t.Fatal("no populated cells")
		}
		return share / float64(cells)
	}

	withClimate := dominantShare(base)
	without := dominantShare(flat)
	if withClimate <= without {
		t.Fatalf("climate overlay should concentrate soil levels: dominant share %.3f (climate) vs %.3f (flat)",
			withClimate, without)
	}
}
