package graph

// WriteTextDecimal writes g with every constant payload in the decimal
// list form, as files written before the b64 form existed are. Tests use
// it to hold the two encodings against each other.
func WriteTextDecimal(g *Graph) string { return writeText(g, true) }
