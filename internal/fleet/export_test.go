package fleet

// Hooks for the external fleet_test package, whose tests drive the fleet
// through the public godisc API (godisc imports this package, so only an
// external test can build the exact server godisc.NewServer wires).
var (
	WriteRepo  = writeRepo
	F32Request = f32Request
	RandInput  = randInput
)

// FixtureWidths maps each fixture model to its input width.
func FixtureWidths() map[string]int {
	out := map[string]int{}
	for _, s := range fixtureSpecs() {
		out[s.name] = s.in
	}
	return out
}
