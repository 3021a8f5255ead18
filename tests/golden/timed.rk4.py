def rk4(y, t0, h, n_steps, record_every):
 [y0, y1, ] = y
 hh, h6 = 0.5 * h, h / 6.0
 times, states = [t0], [(y0, y1, )]
 for k in range(1, n_steps + 1):
  t = t0 + (k - 1) * h
  u = t - t0
  k1_0 = 0.0
  k1_0 += c0_0 * u * y0 ** 2 * y1
  k1_0 += c0_1 * u ** 2
  k1_1 = 0.0
  k1_1 += c1_0 * y0
  k1_1 += c1_1
  u = t + hh - t0
  x0 = y0 + hh * k1_0
  x1 = y1 + hh * k1_1
  k2_0 = 0.0
  k2_0 += c0_0 * u * x0 ** 2 * x1
  k2_0 += c0_1 * u ** 2
  k2_1 = 0.0
  k2_1 += c1_0 * x0
  k2_1 += c1_1
  x0 = y0 + hh * k2_0
  x1 = y1 + hh * k2_1
  k3_0 = 0.0
  k3_0 += c0_0 * u * x0 ** 2 * x1
  k3_0 += c0_1 * u ** 2
  k3_1 = 0.0
  k3_1 += c1_0 * x0
  k3_1 += c1_1
  u = t + h - t0
  x0 = y0 + h * k3_0
  x1 = y1 + h * k3_1
  k4_0 = 0.0
  k4_0 += c0_0 * u * x0 ** 2 * x1
  k4_0 += c0_1 * u ** 2
  k4_1 = 0.0
  k4_1 += c1_0 * x0
  k4_1 += c1_1
  y0 = y0 + h6 * (k1_0 + 2.0 * k2_0 + 2.0 * k3_0 + k4_0)
  y1 = y1 + h6 * (k1_1 + 2.0 * k2_1 + 2.0 * k3_1 + k4_1)
  if k % record_every == 0:
   times.append(t0 + k * h)
   states.append((y0, y1, ))
 return times, states
