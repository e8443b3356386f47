package exp

// Test helpers shared with the external exp_test package, whose
// figure tests import scenario (which imports exp).
var (
	TinyChar = tinyChar
	TinySys  = tinySys
	CellF    = cellF
	Render   = render
	Golden   = checkGolden
)
