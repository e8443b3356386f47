package exp

// Test helpers shared with the external exp_test package, whose
// figure tests import scenario (which imports exp).
var (
	TinySys = tinySys
	CellF   = cellF
)
