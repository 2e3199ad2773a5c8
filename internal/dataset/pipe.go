// Package dataset defines the domain model of the reproduction: water pipes
// with their physical attributes and environmental factors, the failure
// (work-order) log recorded against them, and the columnar region container
// (Columns) that every other package consumes.
//
// The model mirrors the registries water utilities keep: a pipe table keyed
// by asset ID carrying intrinsic attributes (material, diameter, length,
// laid year, coating) and environmental factors (soil characteristics,
// distance to the nearest traffic intersection), plus an event log of dated
// failures matched to pipes and pipe segments.
package dataset

import (
	"fmt"
)

// PipeClass distinguishes the two main categories of a water supply network.
type PipeClass int

const (
	// CriticalMain (CWM) pipes have diameters of 300 mm and above; they are
	// the pipes utilities proactively inspect and renew.
	CriticalMain PipeClass = iota
	// ReticulationMain (RWM) pipes have diameters below 300 mm and are
	// typically renewed reactively.
	ReticulationMain
)

// String returns the utility shorthand for the class.
func (c PipeClass) String() string {
	switch c {
	case CriticalMain:
		return "CWM"
	case ReticulationMain:
		return "RWM"
	default:
		return fmt.Sprintf("PipeClass(%d)", int(c))
	}
}

// ParsePipeClass converts the shorthand back to a PipeClass.
func ParsePipeClass(s string) (PipeClass, error) {
	switch s {
	case "CWM":
		return CriticalMain, nil
	case "RWM":
		return ReticulationMain, nil
	default:
		return 0, fmt.Errorf("dataset: unknown pipe class %q", s)
	}
}

// ClassForDiameter applies the 300 mm rule used by the source utility.
func ClassForDiameter(diameterMM float64) PipeClass {
	if diameterMM >= 300 {
		return CriticalMain
	}
	return ReticulationMain
}

// Material identifies the pipe wall material. The constants cover the
// materials common in metropolitan drinking-water networks.
type Material string

const (
	// CICL is cast iron cement lined, the dominant legacy material.
	CICL Material = "CICL"
	// CI is unlined cast iron, the oldest cohort.
	CI Material = "CI"
	// DICL is ductile iron cement lined.
	DICL Material = "DICL"
	// AC is asbestos cement.
	AC Material = "AC"
	// PVC is polyvinyl chloride.
	PVC Material = "PVC"
	// STEEL is welded steel, used for large trunk mains.
	STEEL Material = "STEEL"
	// HDPE is high-density polyethylene, the newest cohort.
	HDPE Material = "HDPE"
)

// Materials lists every known material in a stable order (useful for
// encoders and report tables).
func Materials() []Material {
	return []Material{CICL, CI, DICL, AC, PVC, STEEL, HDPE}
}

// Coating identifies the protective coating of a pipe.
type Coating string

const (
	// CoatingNone marks an uncoated pipe.
	CoatingNone Coating = "NONE"
	// CoatingPESleeve is a polyethylene sleeve.
	CoatingPESleeve Coating = "PE_SLEEVE"
	// CoatingTar is a tar/bitumen coating.
	CoatingTar Coating = "TAR"
)

// Soil categorical levels. Each soil factor partitions the region into zones;
// pipes falling in the same zone share the value.
var (
	// SoilCorrosivityLevels orders pitting risk from benign to severe.
	SoilCorrosivityLevels = []string{"LOW", "MODERATE", "HIGH", "SEVERE"}
	// SoilExpansivityLevels orders shrink-swell reactivity.
	SoilExpansivityLevels = []string{"STABLE", "SLIGHT", "MODERATE", "HIGH"}
	// SoilGeologyLevels names the dominant rock of a zone.
	SoilGeologyLevels = []string{"SANDSTONE", "SHALE", "CLAY", "ALLUVIUM", "FILL"}
	// SoilMapLevels names the landscape class of a zone.
	SoilMapLevels = []string{"FLUVIAL", "COLLUVIAL", "EROSIONAL", "RESIDUAL", "SWAMP"}
)

// Pipe is one water main: a set of segments connected in series that share
// intrinsic attributes and (approximately) environmental factors.
type Pipe struct {
	// ID is the utility asset identifier, unique within a region.
	ID string
	// Class is the 300 mm diameter classification.
	Class PipeClass
	// Material is the wall material.
	Material Material
	// Coating is the protective coating.
	Coating Coating
	// DiameterMM is the nominal diameter in millimetres.
	DiameterMM float64
	// LengthM is the total pipe length in metres.
	LengthM float64
	// LaidYear is the year the pipe was commissioned.
	LaidYear int
	// SoilCorrosivity, SoilExpansivity, SoilGeology and SoilMap are the
	// categorical soil factors of the zone the pipe traverses.
	SoilCorrosivity string
	SoilExpansivity string
	SoilGeology     string
	SoilMap         string
	// DistToTrafficM is the distance in metres from the pipe to the closest
	// traffic intersection (road-surface pressure-change proxy).
	DistToTrafficM float64
	// X, Y locate the pipe centroid in metres within the region plane
	// (synthetic coordinates; used for risk maps and spatial summaries).
	X, Y float64
	// Segments is the number of serially connected segments; failures are
	// recorded per segment index in [0, Segments).
	Segments int
}

// AgeAt returns the pipe age in years at the start of the given calendar
// year, clamped at zero for pipes laid in the future relative to year.
func (p *Pipe) AgeAt(year int) float64 {
	age := float64(year - p.LaidYear)
	if age < 0 {
		return 0
	}
	return age
}

// SegmentLengthM returns the (uniform) segment length in metres.
// Pipes always have at least one segment.
func (p *Pipe) SegmentLengthM() float64 {
	if p.Segments <= 1 {
		return p.LengthM
	}
	return p.LengthM / float64(p.Segments)
}

// FailureMode describes what kind of event was recorded.
type FailureMode string

const (
	// ModeBreak is a structural break or burst (drinking-water networks).
	ModeBreak FailureMode = "BREAK"
	// ModeLeak is a detected leak repaired before bursting.
	ModeLeak FailureMode = "LEAK"
	// ModeBlockage is a waste-water choke (kept for schema completeness).
	ModeBlockage FailureMode = "BLOCKAGE"
)

// Failure is one work-order event: a dated failure matched to a pipe and a
// segment within it.
type Failure struct {
	// PipeID references Pipe.ID.
	PipeID string
	// Segment is the index of the failed segment within the pipe.
	Segment int
	// Year is the calendar year of the event.
	Year int
	// Day is the day-of-year (1-366) of the event.
	Day int
	// Mode is the recorded failure mode.
	Mode FailureMode
}
