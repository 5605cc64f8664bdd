package dwarf_test

import (
	"fmt"

	"repro/internal/dwarf"
)

// The paper's Fig. 1 sample input, as a runnable example.
func ExampleNew() {
	cube, err := dwarf.New(
		[]string{"Country", "City", "Station"},
		[]dwarf.Tuple{
			{Dims: []string{"Ireland", "Dublin", "Fenian St"}, Measure: 3},
			{Dims: []string{"Ireland", "Dublin", "Pearse St"}, Measure: 5},
			{Dims: []string{"Ireland", "Cork", "Patrick St"}, Measure: 2},
			{Dims: []string{"France", "Paris", "Rue Cler"}, Measure: 4},
		})
	if err != nil {
		panic(err)
	}
	st := cube.Stats()
	fmt.Println("facts:", st.SourceTuples)
	fmt.Println("nodes:", st.Nodes)
	// Output:
	// facts: 4
	// nodes: 9
}

func ExampleCube_Point() {
	cube, _ := dwarf.New(
		[]string{"Country", "City"},
		[]dwarf.Tuple{
			{Dims: []string{"Ireland", "Dublin"}, Measure: 8},
			{Dims: []string{"Ireland", "Cork"}, Measure: 2},
			{Dims: []string{"France", "Paris"}, Measure: 4},
		})
	exact, _ := cube.Point("Ireland", "Dublin")
	all, _ := cube.Point("Ireland", dwarf.All)
	grand, _ := cube.Point(dwarf.All, dwarf.All)
	fmt.Println(exact.Sum, all.Sum, grand.Sum)
	// Output: 8 10 14
}

func ExampleCube_GroupBy() {
	cube, _ := dwarf.New(
		[]string{"City", "Station"},
		[]dwarf.Tuple{
			{Dims: []string{"Dublin", "s1"}, Measure: 3},
			{Dims: []string{"Dublin", "s2"}, Measure: 5},
			{Dims: []string{"Cork", "s3"}, Measure: 2},
		})
	byCity, _ := cube.GroupBy(0, []dwarf.Selector{dwarf.SelectAll(), dwarf.SelectAll()})
	fmt.Println("Dublin:", byCity["Dublin"].Sum)
	fmt.Println("Cork:", byCity["Cork"].Sum)
	// Output:
	// Dublin: 8
	// Cork: 2
}

func ExampleMergeViewsBytes() {
	dims := []string{"Day", "Station"}
	monday, _ := dwarf.BuildIndexed(dims, []dwarf.Tuple{{Dims: []string{"mon", "s1"}, Measure: 4}})
	tuesday, _ := dwarf.BuildIndexed(dims, []dwarf.Tuple{{Dims: []string{"tue", "s1"}, Measure: 6}})
	mv, _ := dwarf.OpenView(monday)
	tv, _ := dwarf.OpenView(tuesday)
	both, _, _ := dwarf.MergeViewsBytes(mv, tv)
	view, _ := dwarf.OpenView(both)
	agg, _ := view.Point(dwarf.All, "s1")
	fmt.Println(agg.Sum, agg.Count)
	// Output: 10 2
}
