package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputGolden pins every byte the example prints. The duty-cycle
// policy counts the randomized advertisements it is asked about, so its
// row moves if the simulator asks it a different number of times. To
// accept an intended change, regenerate the golden with
// `go run ./examples/custompolicy > examples/custompolicy/testdata/output.golden`.
func TestOutputGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "output.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output differs from testdata/output.golden:\n%s", buf.String())
	}
}
