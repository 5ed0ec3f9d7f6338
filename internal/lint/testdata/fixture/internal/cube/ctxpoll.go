package cube

import "context"

func conquer(cube []int) {}

// ConquerAll receives the run's context but never polls it: a cancelled
// run would keep its worker until every cube is solved.
func ConquerAll(ctx context.Context, cubes [][]int) {
	for _, c := range cubes { // want ctxpoll "none of its loops polls"
		conquer(c)
	}
}

// ConquerPolled checks the context before each cube: clean.
func ConquerPolled(ctx context.Context, cubes [][]int) {
	for _, c := range cubes {
		if ctx.Err() != nil {
			return
		}
		conquer(c)
	}
}
