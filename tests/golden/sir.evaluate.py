def evaluate(u, y):
 e0 = 0.0
 e0 += c0_0 * y[0] * y[1]
 e1 = 0.0
 e1 += c1_0 * y[0] * y[1]
 e1 += c1_1 * y[1]
 e2 = 0.0
 e2 += c2_0 * y[1]
 return [e0, e1, e2]
