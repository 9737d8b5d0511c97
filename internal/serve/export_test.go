package serve

// The wire encoders, for the external tests that pin their bytes.
var (
	AppendScore        = appendScore
	WriteJSON          = writeJSON
	WriteQueryResponse = writeQueryResponse
)
