"""DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.4 and II.10) for the mode ODE, imported at
the first solve: scipy's DOP853 tableau as float literals, its initial step, and one step and its
dense output as straight-line code generated from the tableau. ``modes.solve_ivp`` drives them."""

from math import hypot, nan, sqrt  # noqa: F401  (the generated code's)

import numpy as np

from .modes import MODE_ATOL, MODE_RTOL

#: stages 1 to 11, then the weights B as stage 12; each row {stage: coefficient}
#: over its nonzero entries, and C the stage times as fractions of the step
A = (
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5: 27.59209969944671,
     6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843, 5: 21.230051448181193,
     6: 15.279233632882423, 7: -33.28821096898486, 8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295, 5: -8.149787010746927,
     6: -18.52006565999696, 7: 22.739487099350505, 8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5: -17.9589318631188,
     6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063, 9: 12.360567175794303,
     10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
     8: 0.3111643669578199, 9: -0.1521609496625161, 10: 0.20136540080403034,
     11: 0.04471061572777259},
)
C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
     0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
     1.0, 1.0)
#: the fifth- and third-order error estimates
E5 = {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
      7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
      10: 0.08192320648511571, 11: -0.022355307863886294}
E3 = {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
      7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
      10: 0.20136540080403034, 11: 0.02265179219836082}
#: the interpolant's stages 13 to 15 and its four upper rows
A_EXTRA = (
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
     12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7: 4.06898981839711,
     8: 0.3567271874552811, 12: -0.0013990241651590145, 13: 2.9475147891527724,
     14: -9.15095847217987},
)
C_EXTRA = (0.1, 0.2, 0.7777777777777778)
D = (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917, 7: 2.38466765651207,
     8: 2.117034582445028, 9: -0.871391583777973, 10: 2.2404374302607883, 11: 0.6315787787694688,
     12: -0.08899033645133331, 13: 18.148505520854727, 14: -9.194632392478356,
     15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028, 7: -374.5467547226902,
     8: -22.113666853125306, 9: 7.733432668472264, 10: -30.674084731089398,
     11: -9.332130526430229, 12: 15.697238121770845, 13: -31.139403219565178,
     14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758, 7: 527.8081592054236,
     8: -11.57390253995963, 9: 6.8812326946963, 10: -1.0006050966910838, 11: 0.7777137798053443,
     12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455, 7: 357.6391179106141,
     8: 93.40532418362432, 9: -37.45832313645163, 10: 104.0996495089623, 11: 29.8402934266605,
     12: -43.53345659001114, 13: 96.32455395918828, 14: -39.17726167561544,
     15: -149.72683625798564},
)


def _first_step(fun, t0, y0: np.ndarray, t_bound):
    """scipy's ``select_initial_step`` at the mode tolerances for t_bound > t0, by
    the same numpy operations: the step, f0 = fun(t0, y0) as an array and 2 calls."""
    with np.errstate(all="ignore"):
        f0 = np.asarray(fun(t0, tuple(y0.tolist())), dtype=complex)
        interval_length = abs(t_bound - t0)
        scale = MODE_ATOL + np.abs(y0) * MODE_RTOL
        d0, d1 = (np.linalg.norm(x / scale) / x.size ** 0.5 for x in (y0, f0))  # RMS
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval_length)
        h = h0 * np.sign(t_bound - t0)
        f1 = np.asarray(fun(t0 + h, tuple((y0 + h * f0).tolist())), dtype=complex)
        d2 = np.linalg.norm((f1 - f0) / scale) / f1.size ** 0.5 / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** (1 / 8))
    return float(min(100 * h0, h1, interval_length)), f0, 2


def _sum(row: dict, j: int) -> str:
    """Component j of a row's sum ``(0j + c1*k1_j + c2*k2_j + ...)``, complex coefficients."""
    return "(0j" + "".join(f" + {complex(c)!r}*k{k}_{j}" for k, c in row.items()) + ")"


def _stages(rows, cs, first: int) -> list[str]:
    """Each row's state z at t + c h, its stage K and that stage's parts."""
    return [line for k, (row, c) in enumerate(zip(rows, cs), first) for line in (
        "z = (" + ", ".join(f"y{j} + {_sum(row, j)} * h" for j in range(3)) + ")",
        f"K{k} = fun(t + {c!r} * h, z)", f"k{k}_0, k{k}_1, k{k}_2 = K{k}")]


# attempt(fun, t, h, y, f) -> (error, y_new, stages): a step of size h from (t, y), f = fun(t, y);
# the last stage's state is y_new, and its stage the next step's f. dense(fun, t, h, y, y_new,
# stages) -> the three extra stages, then per component y and the seven rows of the interpolant
exec(compile("\n".join("\n    ".join(lines) for lines in ([
    "def attempt(fun, t, h, y, K0):", "y0, y1, y2 = y", "k0_0, k0_1, k0_2 = K0", *_stages(A, C, 1),
    "n0, n1, n2 = z", "err5 = err3 = 0.0",
    *[line for j in range(3) for line in (
        f"a, b = hypot(y{j}.real, y{j}.imag), hypot(n{j}.real, n{j}.imag)",
        f"s = {MODE_ATOL!r} + (a if a >= b or a != a else b) * {MODE_RTOL!r}",  # NaN wins
        f"e5, e3 = {_sum(E5, j)}, {_sum(E3, j)}",
        "r5, i5, r3, i3 = e5.real / s, e5.imag / s, e3.real / s, e3.imag / s",
        "err5 += r5 * r5 + i5 * i5", "err3 += r3 * r3 + i3 * i3")],  # no ** or abs: overflow
    "norm = sqrt((err5 + 0.01 * err3) * 3)",
    "error = 0.0 if err5 == err3 == 0 else abs(h) * err5 / norm if norm else nan",
    "return error, z, (" + ", ".join(f"K{k}" for k in range(13)) + ")",
], [
    "def dense(fun, t, h, y, y_new, K):", "y0, y1, y2 = y", "n0, n1, n2 = y_new",
    *[f"k{k}_0, k{k}_1, k{k}_2 = K[{k}]" for k in range(13)], *_stages(A_EXTRA, C_EXTRA, 13),
    *[f"d{j} = n{j} - y{j}" for j in range(3)],
    "return (" + ", ".join(
        f"(y{j}, d{j}, h * k0_{j} - d{j}, 2.0 * d{j} - h * (k12_{j} + k0_{j}), "
        + ", ".join(f"h * {_sum(row, j)}" for row in D) + ")" for j in range(3)) + ")",
])), "<hyp3._dop853>", "exec"))
