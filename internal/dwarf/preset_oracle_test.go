package dwarf_test

import (
	"bytes"
	"testing"

	"repro/internal/dwarf"
	"repro/internal/smartcity"
)

// TestOracleDayPreset holds the stream builder to the node-graph oracle
// at the paper's Table 2 scale, the Day bike preset: BuildIndexed writes
// the oracle's bytes for a cube of 5,512 nodes and 29,266 + 5,512 =
// 34,778 cells, and under every ablation set New(opts...) writes the
// oracle's bytes under the same options.
func TestOracleDayPreset(t *testing.T) {
	tuples, err := smartcity.Dataset("Day")
	if err != nil {
		t.Fatal(err)
	}
	encode := func(c *dwarf.Cube) []byte {
		var buf bytes.Buffer
		if err := c.EncodeIndexed(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref, err := dwarf.Oracle(smartcity.BikeDims, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if st := ref.Stats(); st.Nodes != 5512 || st.Cells != 29266 || st.TotalCells() != 34778 {
		t.Fatalf("the oracle's Day cube has %d nodes and %d + %d cells, want 5,512 and 29,266 + 5,512",
			st.Nodes, st.Cells, st.AllCells)
	}
	got, err := dwarf.BuildIndexed(smartcity.BikeDims, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if want := encode(ref); !bytes.Equal(got, want) {
		t.Fatalf("BuildIndexed of Day differs from the oracle: %d vs %d bytes", len(got), len(want))
	}
	for name, opts := range dwarf.OptionSets() {
		c, err := dwarf.New(smartcity.BikeDims, tuples, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := dwarf.Oracle(smartcity.BikeDims, tuples, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := encode(c), encode(ref); !bytes.Equal(got, want) {
			t.Fatalf("%s: New of Day differs from the oracle: %d vs %d bytes", name, len(got), len(want))
		}
	}
}
