package components

// The virtual-clock cost table, for the external clock test.
const (
	ChemRHSCost = chemRHSCost
	ChemJacCost = chemJacCost
	RKCCellCost = rkcCellCost
)
