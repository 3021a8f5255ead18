def recurrence(n, y0, g):
 y2 = [y0[2]]
 y1 = [y0[1]]
 y0 = [y0[0]]
 s2 = []
 for i in range(1, n + 1):
  ratio = g[i - 1] / g[i]
  acc = 0.0
  for left, right in zip(y0, reversed(y1)):
   if left != 0.0:
    acc += left * right
  s2.append(acc)
  acc = 0.0
  acc += c0_0 * s2[i - 1]
  y0.append(ratio * acc)
  acc = 0.0
  acc += c1_0 * s2[i - 1]
  acc += c1_1 * y1[i - 1]
  y1.append(ratio * acc)
  acc = 0.0
  acc += c2_0 * y1[i - 1]
  y2.append(ratio * acc)
 return [y0, y1, y2]
