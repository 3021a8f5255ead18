def evaluate(u, y):
 e0 = 0.0
 e0 += c0_0 * u * y[0] ** 2 * y[1]
 e0 += c0_1 * u ** 2
 e1 = 0.0
 e1 += c1_0 * y[0]
 e1 += c1_1
 return [e0, e1]
