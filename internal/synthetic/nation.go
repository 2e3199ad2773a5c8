package synthetic

// Nation-scale presets for the million-pipe data plane. Unlike the paper's
// metropolitan regions, these use the hierarchical generator: pipes cluster
// into districts (contiguous ID blocks laid out as a grid of service
// areas) and soil factors correlate across coarse climate zones, so the
// fixtures have the structure real national utility exports have (cf.
// Weeraddana et al., who train on ~100k+ mains spanning decades). They
// exist to stress the ingest and training paths, not to reproduce any
// published table.

// Metro returns a ~120k-pipe multi-district metropolitan-area preset — the
// mid-size stress fixture (24 districts, 6x6 climate zones).
func Metro(seed int64) Config {
	h := DefaultHazard()
	return Config{
		Region:           "METRO",
		Seed:             seed,
		NumPipes:         120_000,
		CWMFraction:      0.24,
		LaidFrom:         1890,
		LaidTo:           2005,
		LaidSkew:         1.7,
		ObservedFrom:     1998,
		ObservedTo:       2010,
		AreaKM2:          2600,
		SoilZones:        48,
		ClimateZones:     6,
		Districts:        24,
		MeanTrafficDistM: 160,
		SegmentLengthM:   110,
		Eras:             defaultEras(),
		Hazard:           h,
		MissProb:         0.03,
		TargetFailures:   33_000,
	}
}

// Nation returns a ~1M-pipe national preset — the full-scale stress
// fixture for the columnar data plane (160 districts, 12x12 climate
// zones). Generate holds the whole region in its columns, so pipegen at
// this preset peaks at about 440 MiB resident.
func Nation(seed int64) Config {
	h := DefaultHazard()
	return Config{
		Region:           "NAT",
		Seed:             seed,
		NumPipes:         1_000_000,
		CWMFraction:      0.25,
		LaidFrom:         1880,
		LaidTo:           2005,
		LaidSkew:         1.5,
		ObservedFrom:     1998,
		ObservedTo:       2010,
		AreaKM2:          60_000,
		SoilZones:        120,
		ClimateZones:     12,
		Districts:        160,
		MeanTrafficDistM: 220,
		SegmentLengthM:   115,
		Eras:             defaultEras(),
		Hazard:           h,
		MissProb:         0.03,
		TargetFailures:   275_000,
	}
}
