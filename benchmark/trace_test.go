package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The hand-built tree:
//
//	1 op     [0, 100)
//	  2 a    [10, 40)
//	    5 d  [15, 20)
//	  3 b    [30, 60)   overlaps a
//	  4 c    [80, 120)  runs past its parent's end
//	6 probe  [100, 130) a sibling root of the same request
var handTree = []span{
	{ID: 1, Parent: 0, Name: "op", Req: 7, Start: 0, End: 100},
	{ID: 2, Parent: 1, Name: "a", Req: 7, Start: 10, End: 40},
	{ID: 3, Parent: 1, Name: "b", Req: 7, Start: 30, End: 60},
	{ID: 4, Parent: 1, Name: "c", Req: 7, Start: 80, End: 120},
	{ID: 5, Parent: 2, Name: "d", Req: 7, Start: 15, End: 20},
	{ID: 6, Parent: 0, Name: "probe", Req: 7, Start: 100, End: 130},
}

func TestSelfTimes(t *testing.T) {
	self := selfTimes(handTree)
	want := map[int]int64{
		1: 100 - (50 + 20), // children cover [10,60) merged and [80,100) clipped
		2: 30 - 5,          // a grandchild counts against its own parent only
		3: 30,
		4: 40,
		5: 5,
		6: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {3, 5}, {5, 6}}, 4},         // overlapping and touching
		{0, 10, [][2]int64{{-5, 2}, {8, 20}}, 4},               // clipped at both ends
		{0, 10, [][2]int64{{4, 6}, {0, 10}, {1, 2}}, 10},       // one child covers all
		{0, 10, [][2]int64{{12, 15}, {6, 6}}, 0},               // outside or empty
		{0, 100, [][2]int64{{50, 60}, {10, 20}, {15, 55}}, 50}, // unsorted chain
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestRecorder(t *testing.T) {
	var nilRec *recorder
	if id := nilRec.start("x", 0, 1); id != 0 {
		t.Errorf("nil recorder start = %d, want 0", id)
	}
	nilRec.end(0)
	nilRec.do("x", 0, 1, func() {})
	if s := nilRec.snapshot(); s != nil {
		t.Errorf("nil recorder snapshot = %v, want nil", s)
	}

	r := newRecorder()
	op := r.start("op", 0, 3)
	r.do("child", op, 3, func() {})
	open := r.start("unfinished", 0, 4)
	r.end(op)
	spans := r.snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot kept %d spans, want the 2 closed ones", len(spans))
	}
	if spans[1].Parent != op || spans[1].Req != 3 || spans[1].Name != "child" {
		t.Errorf("child span = %+v", spans[1])
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child %+v is not inside its parent %+v", spans[1], spans[0])
	}
	r.end(open)

	var buf bytes.Buffer
	if err := writeSpans(&buf, handTree); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Spans []struct {
			ID     int    `json:"id"`
			Parent int    `json:"parent"`
			Name   string `json:"name"`
			Req    int64  `json:"req"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Self   int64  `json:"self_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Spans) != len(handTree) || dump.Spans[0].Self != 30 || dump.Spans[0].Name != "op" || dump.Spans[4].Parent != 2 {
		t.Errorf("span dump = %+v", dump.Spans)
	}
}

func TestMedianDurAndPairedRatio(t *testing.T) {
	if v := medianDurUS(handTree, "a"); v != 0.03 {
		t.Errorf("median duration of a = %v us, want 0.03", v)
	}
	if v := medianDurUS(handTree, "missing"); v != 0 {
		t.Errorf("median duration of a missing span = %v, want 0", v)
	}
	if v := pairedRatio(handTree, "op", "probe"); v != 100.0/30 {
		t.Errorf("paired ratio op/probe = %v, want %v", v, 100.0/30)
	}
}
