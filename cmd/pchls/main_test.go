package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseInputs(t *testing.T) {
	in, err := parseInputs("x=3, y=-4 ,dx=0")
	if err != nil {
		t.Fatal(err)
	}
	if in["x"] != 3 || in["y"] != -4 || in["dx"] != 0 {
		t.Fatalf("parsed %v", in)
	}
	if len(in) != 3 {
		t.Fatalf("parsed %d entries", len(in))
	}
	// Trailing commas and empties are tolerated.
	in, err = parseInputs("a=1,,")
	if err != nil || len(in) != 1 {
		t.Fatalf("trailing comma: %v %v", in, err)
	}
	for _, bad := range []string{"x", "x=abc", "=3", " =3", "x=1,x=2", "x=1, x =2"} {
		if _, err := parseInputs(bad); err == nil {
			t.Errorf("parseInputs(%q) accepted", bad)
		}
	}
}

func TestLoadGraphBenchmarkName(t *testing.T) {
	g, err := loadGraph("hal")
	if err != nil || g.Name != "hal" {
		t.Fatalf("loadGraph(hal): %v %v", g, err)
	}
}

func TestLoadGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.cdfg")
	content := "graph g\nnode a imp\nnode b add\nnode c xpt\nedge a b\nedge b c\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(path)
	if err != nil || g.N() != 3 {
		t.Fatalf("loadGraph(file): %v %v", g, err)
	}
	if _, err := loadGraph(filepath.Join(dir, "missing.cdfg")); err == nil {
		t.Fatal("missing file accepted")
	}
}
