package dist

// Hooks into the rec frame codec for the external test package.
var (
	AppendRecFrame = appendRecFrame
	DecodeRecFrame = decodeRecFrame
	WriteRecFrame  = writeRecFrame
)
