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
//   - any other directory loads the pipes/failures/meta CSV trio through
//     dataset.LoadDir.
//
// Both formats apply the same validation rules (Columns.Validate).
func Open(path string) (cols *dataset.Columns, columnar bool, err error) {
	colPath, err := locate(path)
	if err != nil {
		return nil, false, err
	}
	if colPath != "" {
		cols, err := ReadFile(colPath)
		return cols, true, err
	}
	cols, err = dataset.LoadDir(path)
	return cols, false, err
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
