package pipeline

// SameResult exposes sameResult to the external pipeline_test package, whose
// lifecycle tests hold the engine to the same byte-identical comparison.
var SameResult = sameResult
