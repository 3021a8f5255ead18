def rk4(y, t0, h, n_steps, record_every):
 [y0, y1, y2, ] = y
 hh, h6 = 0.5 * h, h / 6.0
 times, states = [t0], [(y0, y1, y2, )]
 for k in range(1, n_steps + 1):
  k1_0 = 0.0
  k1_0 += c0_0 * y0 * y1
  k1_1 = 0.0
  k1_1 += c1_0 * y0 * y1
  k1_1 += c1_1 * y1
  k1_2 = 0.0
  k1_2 += c2_0 * y1
  x0 = y0 + hh * k1_0
  x1 = y1 + hh * k1_1
  k2_0 = 0.0
  k2_0 += c0_0 * x0 * x1
  k2_1 = 0.0
  k2_1 += c1_0 * x0 * x1
  k2_1 += c1_1 * x1
  k2_2 = 0.0
  k2_2 += c2_0 * x1
  x0 = y0 + hh * k2_0
  x1 = y1 + hh * k2_1
  k3_0 = 0.0
  k3_0 += c0_0 * x0 * x1
  k3_1 = 0.0
  k3_1 += c1_0 * x0 * x1
  k3_1 += c1_1 * x1
  k3_2 = 0.0
  k3_2 += c2_0 * x1
  x0 = y0 + h * k3_0
  x1 = y1 + h * k3_1
  k4_0 = 0.0
  k4_0 += c0_0 * x0 * x1
  k4_1 = 0.0
  k4_1 += c1_0 * x0 * x1
  k4_1 += c1_1 * x1
  k4_2 = 0.0
  k4_2 += c2_0 * x1
  y0 = y0 + h6 * (k1_0 + 2.0 * k2_0 + 2.0 * k3_0 + k4_0)
  y1 = y1 + h6 * (k1_1 + 2.0 * k2_1 + 2.0 * k3_1 + k4_1)
  y2 = y2 + h6 * (k1_2 + 2.0 * k2_2 + 2.0 * k3_2 + k4_2)
  if k % record_every == 0:
   times.append(t0 + k * h)
   states.append((y0, y1, y2, ))
 return times, states
