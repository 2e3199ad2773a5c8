package dataset

import "fmt"

// Split is a temporal train/test partition of a region's observation
// window: the model sees failures from TrainFrom..TrainTo and is evaluated
// on predicting failures in TestYear, exactly as a utility would run the
// model at the end of TrainTo to plan the next year's inspections.
type Split struct {
	TrainFrom int
	TrainTo   int
	TestYear  int
}

// NewSplit validates the window arithmetic against the region's
// observation span and returns the split.
func NewSplit(n *Columns, trainFrom, trainTo, testYear int) (Split, error) {
	switch {
	case trainFrom > trainTo:
		return Split{}, fmt.Errorf("dataset: train window [%d, %d] inverted", trainFrom, trainTo)
	case testYear <= trainTo:
		return Split{}, fmt.Errorf("dataset: test year %d not after train window end %d", testYear, trainTo)
	case trainFrom < n.ObservedFrom:
		return Split{}, fmt.Errorf("dataset: train start %d before observation start %d", trainFrom, n.ObservedFrom)
	case testYear > n.ObservedTo:
		return Split{}, fmt.Errorf("dataset: test year %d after observation end %d", testYear, n.ObservedTo)
	}
	return Split{TrainFrom: trainFrom, TrainTo: trainTo, TestYear: testYear}, nil
}

// PaperSplit reproduces the paper's protocol: all observed history except
// the final year for training, the final year held out for testing.
func PaperSplit(n *Columns) (Split, error) {
	return NewSplit(n, n.ObservedFrom, n.ObservedTo-1, n.ObservedTo)
}

// RollingSplits enumerates rolling-origin splits: for each test year in
// [firstTest, n.ObservedTo], train on [n.ObservedFrom, testYear-1].
// It is the protocol behind the significance tests, which need multiple
// paired observations per method.
func RollingSplits(n *Columns, firstTest int) ([]Split, error) {
	if firstTest <= n.ObservedFrom {
		return nil, fmt.Errorf("dataset: first test year %d must leave at least one training year after %d",
			firstTest, n.ObservedFrom)
	}
	if firstTest > n.ObservedTo {
		return nil, fmt.Errorf("dataset: first test year %d after observation end %d", firstTest, n.ObservedTo)
	}
	var out []Split
	for y := firstTest; y <= n.ObservedTo; y++ {
		s, err := NewSplit(n, n.ObservedFrom, y-1, y)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// WindowSplit trains on the w years immediately preceding the region's
// final observed year and tests on that final year. It is the protocol of
// the training-history-length experiment.
func WindowSplit(n *Columns, w int) (Split, error) {
	if w < 1 {
		return Split{}, fmt.Errorf("dataset: window %d must be >= 1", w)
	}
	testYear := n.ObservedTo
	trainFrom := testYear - w
	if trainFrom < n.ObservedFrom {
		trainFrom = n.ObservedFrom
	}
	return NewSplit(n, trainFrom, testYear-1, testYear)
}
