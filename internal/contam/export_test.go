package contam

// AnalyzeMaps is the map-based reference analysis.
var AnalyzeMaps = analyzeMaps
