package exporttest

func (t *T) N() int { return t.n }
