package colfmt

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dataset"
)

// Open loads the dataset at path as columns and reports whether they came
// from a PCOL file. The format is sniffed:
//
//   - a regular file is read as a PCOL columnar file;
//   - a directory containing DatasetFile ("dataset.col") loads columnar,
//     even if CSV files sit alongside it;
//   - any other directory loads the pipes/failures/meta CSV trio, which is
//     validated as a network and converted once with Network.Columns.
func Open(path string) (cols *dataset.Columns, columnar bool, err error) {
	colPath, err := locate(path)
	if err != nil {
		return nil, false, err
	}
	if colPath != "" {
		cols, err := ReadFile(colPath)
		return cols, true, err
	}
	net, err := dataset.LoadDir(path)
	if err != nil {
		return nil, false, err
	}
	return net.Columns(), false, nil
}

// OpenNetwork loads the dataset at path, sniffed as Open does, as a
// validated row-oriented network.
func OpenNetwork(path string) (*dataset.Network, error) {
	colPath, err := locate(path)
	if err != nil {
		return nil, err
	}
	if colPath == "" {
		return dataset.LoadDir(path)
	}
	cols, err := ReadFile(colPath)
	if err != nil {
		return nil, err
	}
	return cols.Network()
}

// locate resolves path to the PCOL file it names or holds, or to "" for a
// CSV directory.
func locate(path string) (string, error) {
	st, err := os.Stat(path)
	if err != nil {
		return "", fmt.Errorf("colfmt: %w", err)
	}
	if !st.IsDir() {
		return path, nil
	}
	colPath := filepath.Join(path, DatasetFile)
	if _, err := os.Stat(colPath); err == nil {
		return colPath, nil
	}
	return "", nil
}
